"""The interface a concrete Garside structure of finite type must provide.

A group is described to this package by a :class:`GarsideContext`: an
ordered list of atoms, the simple elements ``1`` and ``delta``, and two
atom-division tests returning quotients.  Everything else in the package
(complements, lattice operations, normal forms, sliding, conjugacy search)
is derived from these.

Simple elements are opaque *canonical* values owned by the context: two
values compare equal with ``==`` iff they represent the same group
element, and equal values hash equally.  The rest of the package relies
on this canonicality and uses plain ``==``/``hash`` everywhere; the
tests cross-check it against a stripping-based equality.

Contexts are immutable after construction; a context may keep idempotent
memo caches, so a race at worst recomputes a value.  They can be shared
freely between threads; all operations are pure functions of their
inputs.  Work is charged to the current run (see :func:`counted`), not to
the context, so runs that share a context each get an exact count.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
from abc import ABC, abstractmethod
from typing import Hashable, Iterator, Sequence

from .errors import ContextMismatchError, GarsideError, InternalInvariantError
from .simples import SimpleLatticeOps

#: Simple elements are opaque hashable canonical payloads.
Simple = Hashable


@dataclasses.dataclass(frozen=True)
class Atom:
    """One atom of the structure, given by its 1-based index.

    The index order is total, fixed for the lifetime of the context, and is
    the tie-breaking order used by every deterministic atom scan.
    """

    index: int


@dataclasses.dataclass
class RunStats:
    """Observed instrumentation counters for one solver run.

    ``trajectory_entry`` is the largest pre-periodic trajectory length
    seen, ``circuit_period`` the largest sliding-circuit length, ``r_max``
    the largest number of whole-circuit transports applied until a value
    repeated, ``sc_size`` the elements the walks hold when the run ends
    (both walks together for :func:`~garside.conjugacy.solve_conjugacy`,
    0 when its summit test decides), and ``contract_calls`` the basic
    operations charged to the run: one per atom division and one per call
    of a native fast path, cached or not.  These are observations; no loop
    is bounded by them.
    """

    trajectory_entry: int = 0
    circuit_period: int = 0
    r_max: int = 0
    sc_size: int = 0
    contract_calls: int = 0

    def as_dict(self) -> dict:
        return {
            "T": self.trajectory_entry,
            "N": self.circuit_period,
            "R_max": self.r_max,
            "sc_size": self.sc_size,
            "contract_calls": self.contract_calls,
        }


#: The stats of the current run; outside every run, a sink nothing reads.
RUN: contextvars.ContextVar[RunStats] = contextvars.ContextVar("run", default=RunStats())

#: The current run's stats; bound once, as the charge sites are hot.
current_run = RUN.get


@contextlib.contextmanager
def counted() -> Iterator[RunStats]:
    """Run the with-block as a run of its own with fresh stats; on exit,
    raising or not, the enclosing run is current again and is charged the
    block's calls too."""
    stats = RunStats()
    token = RUN.set(stats)
    try:
        yield stats
    finally:
        RUN.reset(token)
        current_run().contract_calls += stats.contract_calls


class GarsideContext(SimpleLatticeOps, ABC):
    """A finite-type Garside structure, given by its atom-level operations.

    Subclasses implement :meth:`_divide_atom_left` and
    :meth:`_divide_atom_right`, and may override any derived operation from
    :class:`~garside.simples.SimpleLatticeOps` with a native fast path.
    An override charges one unit per invocation to the current run, with
    ``current_run().contract_calls += 1``.
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
        self.delta_norm = self._measure_delta()

    # -- required operations (template methods charge the current run) ---

    def divide_atom_left(self, a: Atom, s: Simple) -> Simple | None:
        """a⁻¹·s if the atom a left-divides the simple s, else None."""
        current_run().contract_calls += 1
        return self._divide_atom_left(a, s)

    def divide_atom_right(self, s: Simple, a: Atom) -> Simple | None:
        """s·a⁻¹ if the atom a right-divides the simple s, else None."""
        current_run().contract_calls += 1
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

    def check_simple(self, s: Simple) -> None:
        """Raise ContextMismatchError if s cannot belong to this context.

        The default strips s by atom division, at most ‖Δ‖ times, and
        requires the identity to remain and the division not to fail on s
        as on a value of the wrong shape; concrete contexts override it
        with a cheap shape check.  Called at API boundaries (element
        builders), not in inner loops.
        """
        wrong_shape = (GarsideError, TypeError, ValueError, LookupError, AttributeError)
        t = s
        try:
            for _ in range(self.delta_norm + 1):
                fd = self.first_left_divisor(t)
                if fd is None:
                    if t == self.identity:
                        return
                    break
                t = fd[1]
        except wrong_shape as exc:
            raise ContextMismatchError(f"not a simple element: {s!r}") from exc
        raise ContextMismatchError(f"not a simple element: {s!r}")

    def _measure_delta(self) -> int:
        """Atom length of delta, established by stripping it to the identity;
        a concrete context may override this with its known value."""
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
