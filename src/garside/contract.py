"""The interface a concrete Garside structure of finite type must provide.

A group is described to this package by a :class:`GarsideContext`: an
ordered list of atoms, the simple elements ``1`` and ``delta``, and two
atom-division tests returning quotients.  Everything else in the package
(complements, lattice operations, normal forms, sliding, conjugacy search)
is derived from these.

Simple elements are opaque *canonical* values owned by the context: two
values compare equal with ``==`` iff they represent the same group
element, and equal values hash equally.  The rest of the package relies
on this canonicality and uses plain ``==``/``hash`` in hot paths; the
generic stripping-based equality remains available for cross-checking.

Contexts are immutable after construction (the attached operation counter
is instrumentation, not algebraic state) and can be shared freely between
threads; all operations are pure functions of their inputs.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from typing import Hashable, Sequence

from .errors import ContextMismatchError, GarsideError, InternalInvariantError
from .simples import SimpleLatticeOps

#: Simple elements are opaque hashable canonical payloads.
Simple = Hashable


@dataclasses.dataclass(frozen=True)
class Atom:
    """One atom of the structure: a 1-based index and a short display name.

    The index order is total, fixed for the lifetime of the context, and is
    the tie-breaking order used by every deterministic atom scan.
    """

    index: int
    name: str


@dataclasses.dataclass
class OpCounter:
    """Counter for basic operations performed through a context.

    One unit is charged per required-operation call (atom division) and
    per invocation of a native fast-path override.  The count is
    the abstract cost unit reported in run statistics; it makes no
    wall-clock claim.  Updates are not synchronized: under concurrent use
    the count is approximate.
    """

    calls: int = 0

    def reset(self) -> None:
        self.calls = 0


class GarsideContext(SimpleLatticeOps, ABC):
    """A finite-type Garside structure, given by its atom-level operations.

    Subclasses implement :meth:`_divide_atom_left` and
    :meth:`_divide_atom_right`, and may override any derived operation from
    :class:`~garside.simples.SimpleLatticeOps` with a native fast path.
    Overrides must charge ``self.ops.calls += 1`` per invocation.
    """

    def __init__(self, atoms: Sequence[Atom], identity: Simple, delta: Simple):
        self._atoms = tuple(atoms)
        if not self._atoms:
            raise GarsideError("a Garside context needs at least one atom")
        indices = [a.index for a in self._atoms]
        if indices != list(range(1, len(indices) + 1)):
            raise GarsideError("atom indices must be 1..n in order")
        self.identity = identity
        self.delta = delta
        self.ops = OpCounter()
        self.delta_norm = self._measure_delta()

    # -- required operations (template methods charge the counter) -------

    def divide_atom_left(self, a: Atom, s: Simple) -> Simple | None:
        """a⁻¹·s if the atom a left-divides the simple s, else None."""
        self.ops.calls += 1
        return self._divide_atom_left(a, s)

    def divide_atom_right(self, s: Simple, a: Atom) -> Simple | None:
        """s·a⁻¹ if the atom a right-divides the simple s, else None."""
        self.ops.calls += 1
        return self._divide_atom_right(s, a)

    @abstractmethod
    def _divide_atom_left(self, a: Atom, s: Simple) -> Simple | None: ...

    @abstractmethod
    def _divide_atom_right(self, s: Simple, a: Atom) -> Simple | None: ...

    # -- metadata ----------------------------------------------------------

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The atoms, in their fixed index order."""
        return self._atoms

    @property
    def num_atoms(self) -> int:
        return len(self._atoms)

    def check_simple(self, s: Simple) -> None:
        """Raise ContextMismatchError if s cannot belong to this context.

        The default accepts anything; concrete contexts override with a
        cheap shape check.  Called at API boundaries (element builders),
        not in inner loops.
        """

    def _measure_delta(self) -> int:
        """Atom length of delta, established by stripping it to the identity."""
        count = 0
        s = self.delta
        while True:
            fd = self.first_left_divisor(s)
            if fd is None:
                break
            _, s = fd
            count += 1
        if s != self.identity:
            raise InternalInvariantError(
                "delta did not reduce to the identity by atom division"
            )
        return count


def require_same_context(a: GarsideContext, b: GarsideContext) -> None:
    """Raise unless the two contexts describe the same structure."""
    if a is not b and a != b:
        raise ContextMismatchError("operands belong to different Garside contexts")
