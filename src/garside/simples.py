"""Derived operations on simple elements, generic over the atom-level interface.

:class:`SimpleLatticeOps` is mixed into ``GarsideContext``.  Every routine
here is written purely in terms of the two required atom-division
operations, the atom list and the distinguished simples ``identity`` and
``delta``; no structure-specific knowledge is used.  Concrete contexts may
override any of these methods with faster native code (the braid context
does, for the ones on the solver's path), in which case the generic
version stays reachable as an unbound call, e.g.
``SimpleLatticeOps.gcd_simple(ctx, s, t)``.  Only operations the package
calls are here; lcm, equality and weightedness checks that only tests
need are kept with the test references (``tests/reference.py``).

Two determinism rules are baked in and relied upon elsewhere:

* "take an atom dividing s" always scans the atom list in index order and
  takes the first divisor;
* stripping common atoms (complements, gcd, local sliding) restarts the
  atom scan from the first atom after every successful strip.

The second rule lives in one place, :meth:`SimpleLatticeOps._strip_common`,
which every stripping routine calls with the atom division of its side.
"""

from __future__ import annotations

from .errors import InternalInvariantError


class SimpleLatticeOps:
    """Generic lattice and complement operations for simple elements.

    Expects the host class to provide ``atoms``, ``identity``, ``delta``,
    ``divide_atom_left(a, s)`` and ``divide_atom_right(s, a)``.
    """

    # -- divisor scans ------------------------------------------------

    def first_left_divisor(self, s):
        """First atom (in index order) left-dividing s, with quotient, or None."""
        for a in self.atoms:
            q = self.divide_atom_left(a, s)
            if q is not None:
                return a, q
        return None

    def atom_simple(self, a):
        """The simple element represented by the atom a."""
        return self.mult_atom_left(a, self.identity)

    # -- complements and tau ------------------------------------------

    def right_complement(self, s):
        """The simple element s⁻¹·Δ."""
        s, d, _ = self._strip_common(self.divide_atom_left, s, self.delta)
        if s != self.identity:
            raise InternalInvariantError("right complement ran out of delta")
        return d

    def left_complement(self, s):
        """The simple element Δ·s⁻¹."""
        s, d, _ = self._strip_common(self._right_quotient, s, self.delta)
        if s != self.identity:
            raise InternalInvariantError("left complement ran out of delta")
        return d

    def tau_power(self, s, k: int):
        """Conjugate of the simple s by Δ^k, computed as the 2k-th complement power."""
        while k > 0:
            s = self.right_complement(self.right_complement(s))
            k -= 1
        while k < 0:
            s = self.left_complement(self.left_complement(s))
            k += 1
        return s

    # -- lattice operations --------------------------------------------

    def _strip_common(self, divide, s, t):
        """Strip atoms dividing both s and t, on one side, until none does.

        ``divide(a, x)`` is the quotient of x by the atom a on that side,
        or None.  The atoms are scanned in index order and the scan
        restarts from the first atom after every strip.  Returns the two
        remainders and the stripped atoms in the order they were stripped.
        """
        atoms = self.atoms
        stripped = []
        i = 0
        while i < len(atoms):
            a = atoms[i]
            qs = divide(a, s)
            qt = divide(a, t) if qs is not None else None
            if qs is not None and qt is not None:
                s, t = qs, qt
                stripped.append(a)
                i = 0
            else:
                i += 1
        return s, t, stripped

    def _right_quotient(self, a, s):
        """divide_atom_right with the atom first, as _strip_common calls it."""
        return self.divide_atom_right(s, a)

    def gcd_simple(self, s, t):
        """Greatest common divisor of two simples for the prefix order."""
        d = self.delta
        for a in self._strip_common(self.divide_atom_left, s, t)[2]:
            d = self.divide_atom_left(a, d)
        return self.left_complement(d)

    def rgcd_simple(self, s, t):
        """Greatest common divisor of two simples for the suffix order."""
        d = self.delta
        for a in self._strip_common(self._right_quotient, s, t)[2]:
            d = self.divide_atom_right(d, a)
        return self.right_complement(d)

    # -- local slidings -------------------------------------------------

    def local_sliding(self, s, t):
        """Left-weighted pair with the same product as s·t.

        Transfers u = ∂(s) ∧ t from the front of t to the back of s,
        returning (s·u, u⁻¹·t).
        """
        sp, t, _ = self._strip_common(
            self.divide_atom_left, self.right_complement(s), t
        )
        return self.left_complement(sp), t

    def local_right_sliding(self, s, t):
        """Right-weighted pair with the same product as s·t.

        Transfers u = s ∧^r ∂⁻¹(t) from the back of s to the front of t,
        returning (s·u⁻¹, u·t).
        """
        s, tp, _ = self._strip_common(
            self._right_quotient, s, self.left_complement(t)
        )
        return s, self.right_complement(tp)

    # -- products with atoms ---------------------------------------------

    def mult_atom_right(self, s, a):
        """s·a if it is simple, else None."""
        q = self.divide_atom_left(a, self.right_complement(s))
        if q is None:
            return None
        return self.left_complement(q)

    def mult_atom_left(self, a, s):
        """a·s if it is simple, else None."""
        q = self.divide_atom_right(self.left_complement(s), a)
        if q is None:
            return None
        return self.right_complement(q)
