"""The atom-level interface and its braid realization."""

import pytest

import garside as g
from garside.errors import ContextMismatchError
from garside.oracle import enumerate_simples

from conftest import BareContext, eval_word, inversions

S1 = (1, 0, 2)
S2 = (0, 2, 1)
S1S2 = (2, 0, 1)
S2S1 = (1, 2, 0)
DELTA3 = (2, 1, 0)


def test_atom_order_is_stable(b3):
    first = b3.atoms
    second = b3.atoms
    assert first == second
    assert [a.index for a in first] == [1, 2]


def test_left_division_examples(b3):
    a1, a2 = b3.atoms
    assert b3.divide_atom_left(a1, DELTA3) == S2S1
    assert b3.divide_atom_left(a1, S1) == b3.identity
    assert b3.divide_atom_left(a1, S2) is None


def test_right_division_examples(b3):
    a1, a2 = b3.atoms
    assert b3.divide_atom_right(DELTA3, a1) == S1S2
    assert b3.divide_atom_right(S2, a2) == b3.identity
    assert b3.divide_atom_right(S2, a1) is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_division_inverts_composition(n):
    # whenever a divides s, re-multiplying the quotient by a recovers s,
    # checked against plain permutation composition
    ctx = g.braid_context(n)
    for s in enumerate_simples(ctx):
        for a in ctx.atoms:
            q = ctx.divide_atom_left(a, s)
            if q is not None:
                word = [a.index] + _word_of(ctx, q)
                assert eval_word(n, word) == s
                assert inversions(q) == inversions(s) - 1
            q = ctx.divide_atom_right(s, a)
            if q is not None:
                word = _word_of(ctx, q) + [a.index]
                assert eval_word(n, word) == s


def _word_of(ctx, s):
    out = []
    while True:
        fd = ctx.first_left_divisor(s)
        if fd is None:
            return out
        a, s = fd
        out.append(a.index)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_atom_count_and_delta_norm(n):
    ctx = g.braid_context(n)
    assert ctx.num_atoms == n - 1
    assert ctx.delta_norm == n * (n - 1) // 2


def test_context_mismatch_is_an_error(b3, b4):
    with pytest.raises(ContextMismatchError):
        b3.divide_atom_left(b3.atoms[0], b4.delta)
    with pytest.raises(ContextMismatchError):
        b3.divide_atom_left(b4.atoms[2], b3.delta)  # index 3 does not exist in B_3
    with pytest.raises(ContextMismatchError):
        b3.check_simple((0, 0, 1))
    with pytest.raises(ContextMismatchError):
        g.simple_element(b3, b4.delta)


def test_element_context_mismatch(b3, b4):
    x = g.delta_power_element(b3, 1)
    y = g.delta_power_element(b4, 1)
    with pytest.raises(ContextMismatchError):
        x * y
    with pytest.raises(ContextMismatchError):
        g.solve_conjugacy(x, y)


def test_counter_counts_required_ops(b3):
    before = b3.ops.calls
    b3.divide_atom_left(b3.atoms[0], DELTA3)
    assert b3.ops.calls == before + 1


def test_bare_context_runs_whole_stack(b3):
    # the conjugacy machinery must work on a context that provides nothing
    # beyond the required operations
    bare = BareContext(b3)
    assert bare.delta_norm == 3
    x = g.normalize(bare, [S1, S2])
    y = g.normalize(bare, [S2, S1])
    result = g.solve_conjugacy(x, y)
    assert result.conjugate
    assert x.conjugated(result.witness) == y
