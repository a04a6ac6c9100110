"""The atom-level interface and its braid realization."""

import importlib
import inspect
import pathlib
import re
import types

import pytest

import garside as g
from garside.conjugacy import enumerate_simples
from garside.contract import counted
from garside.elements import delta_power_element, simple_element
from garside.errors import ContextMismatchError
from garside.simples import SimpleLatticeOps

from conftest import BareContext, eval_word, inversions

S1 = (1, 0, 2)
S2 = (0, 2, 1)
S1S2 = (2, 0, 1)
S2S1 = (1, 2, 0)
DELTA3 = (2, 1, 0)


def test_package_exports_no_modules():
    for name in g.__all__:
        assert not isinstance(getattr(g, name), types.ModuleType), name
    assert "circuit_of" in g.__all__ and "elements" not in g.__all__


def test_public_surface_is_pinned():
    # what a structure inherits and what the package exports; test-only
    # references belong in tests/reference.py, not here
    assert g.__all__ == [
        "Atom", "BraidContext", "BraidWord", "Circuit", "ConjugacyResult",
        "ContextMismatchError", "Element", "GarsideContext", "GarsideError",
        "InternalInvariantError", "OracleSizeError", "RunStats",
        "SCGraph", "Simple", "Trajectory", "WordParseError",
        "braid_context", "circuit_of", "cyclic_sliding", "element_from_word",
        "enumerate_sc", "normalize", "parse_word", "preferred_prefix",
        "slide_to_first_repetition", "solve_conjugacy", "word_from_element",
    ]
    methods = sorted(
        name for name, value in vars(SimpleLatticeOps).items()
        if inspect.isfunction(value) and not name.startswith("_")
    )
    assert methods == [
        "atom_simple", "first_left_divisor", "gcd_simple", "left_complement",
        "local_right_sliding", "local_sliding", "mult_atom_left",
        "mult_atom_right", "rgcd_simple", "right_complement", "tau_power",
    ]


def test_solver_internals_stay_in_their_modules():
    # dropped from the package surface, still importable where they live
    internals = {
        "conjugacy": ("arrows_at", "iterated_pullback_to_repetition",
                      "naive_solve", "transport_cycle"),
        "elements": ("atom_element", "delta_power_element", "identity_element",
                     "lcm_elements", "positive_part", "simple_element"),
        "sliding": ("minimal_sss_conjugator", "preferred_suffix",
                    "pullback_step", "transport"),
    }
    for module, names in internals.items():
        for name in names:
            value = getattr(importlib.import_module(f"garside.{module}"), name)
            assert name not in g.__all__ and callable(value), name


def test_names_the_benchmark_reads_are_exported():
    # bench/ reaches the package as ``g`` (or ``self.g``); a name cut from
    # the surface would break a workload that tier-1 never runs
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    names = {
        name
        for path in bench.glob("*.py")
        for name in re.findall(r"(?<![\w.])(?:self\.)?g\.(\w+)", path.read_text())
    }
    assert "slide_to_first_repetition" in names and "solve_conjugacy" in names
    assert names - {"cli", "__file__"} <= set(g.__all__)


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
    assert len(ctx.atoms) == n - 1
    assert ctx.delta_norm == n * (n - 1) // 2


def test_context_mismatch_is_an_error(b3, b4):
    with pytest.raises(ContextMismatchError):
        b3.divide_atom_left(b3.atoms[0], b4.delta)
    with pytest.raises(ContextMismatchError):
        b3.divide_atom_left(b4.atoms[2], b3.delta)  # index 3 does not exist in B_3
    with pytest.raises(ContextMismatchError):
        b3.check_simple((0, 0, 1))
    with pytest.raises(ContextMismatchError):
        simple_element(b3, b4.delta)


def test_check_simple_rejects_non_int_entries(b2, b3):
    with pytest.raises(ContextMismatchError):
        b3.check_simple((0, "a", 2))
    with pytest.raises(ContextMismatchError):
        b2.check_simple(((0, 1), 1))
    # a float or a bool equal to a valid entry is still not an int
    with pytest.raises(ContextMismatchError):
        b3.check_simple((0, 1.0, 2))
    with pytest.raises(ContextMismatchError):
        b2.check_simple((True, 0))


def test_element_context_mismatch(b3, b4):
    x = delta_power_element(b3, 1)
    y = delta_power_element(b4, 1)
    with pytest.raises(ContextMismatchError):
        x * y
    with pytest.raises(ContextMismatchError):
        g.solve_conjugacy(x, y)


def test_counter_counts_required_ops(b3):
    with counted() as run:
        b3.divide_atom_left(b3.atoms[0], DELTA3)
    assert run.contract_calls == 1


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
