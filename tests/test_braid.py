"""The braid context: construction, divisibility convention, words."""

import itertools
import random
import sys
import threading

import pytest

import garside as g
import garside.braid
import garside.conjugacy
from garside.braid import (
    MEMO_LIMIT,
    WordParseError,
    parse_word,
    simple_to_word,
    word_from_element,
)
from garside.conjugacy import enumerate_simples
from garside.contract import GarsideContext, counted, current_run
from garside.elements import delta_power_element, identity_element, simple_element
from garside.errors import GarsideError, InternalInvariantError, OracleSizeError
from garside.simples import SimpleLatticeOps

import reference as ref
from conftest import eval_word, inversions, random_element, random_simple


def test_two_strand_group(b2):
    assert len(b2.atoms) == 1
    assert b2.delta == (1, 0)
    assert len(enumerate_simples(b2)) == 2
    # B_2 elements are powers of the single generator, i.e. of delta
    x = g.element_from_word(b2, parse_word("1 1 1"))
    assert (x.p, x.factors) == (3, ())


def test_three_strand_delta(b3):
    assert b3.delta == (2, 1, 0)
    assert b3.delta_norm == 3
    assert g.element_from_word(b3, parse_word("1 2 1")) == delta_power_element(b3, 1)


def test_simple_counts():
    for n, count in ((2, 2), (3, 6), (4, 24), (5, 120), (6, 720)):
        assert len(enumerate_simples(g.braid_context(n))) == count
    with pytest.raises(OracleSizeError):
        enumerate_simples(g.braid_context(7))


def test_rejects_too_few_strands():
    with pytest.raises(GarsideError):
        g.braid_context(1)


def test_delta_norm_is_counted_not_stripped():
    # ‖Δ‖ = n(n-1)/2 agrees with the generic atom-stripping measure, and a
    # braid context charges nothing to find it, even at 800 strands
    for n in range(2, 8):
        assert g.braid_context(n).delta_norm == GarsideContext._measure_delta(
            g.braid_context(n)
        )
    with counted() as run:
        ctx = g.braid_context(800)
    assert (ctx.delta_norm, run.contract_calls) == (319600, 0)


def _reduced_words(n, max_len):
    """Map each permutation to the set of its minimal-length positive words."""
    words = {}
    for length in range(max_len + 1):
        for word in itertools.product(range(1, n), repeat=length):
            table = eval_word(n, word)
            if inversions(table) == length:
                words.setdefault(table, set()).add(word)
    return words


@pytest.mark.parametrize("n", [3, 4])
def test_divisibility_matches_word_oracle(n):
    # an atom divides a simple on the left iff some minimal word starts
    # with it, and on the right iff some minimal word ends with it
    ctx = g.braid_context(n)
    reduced = _reduced_words(n, ctx.delta_norm)
    assert len(reduced) == len(enumerate_simples(ctx))
    for table, words in reduced.items():
        firsts = {w[0] for w in words if w}
        lasts = {w[-1] for w in words if w}
        for a in ctx.atoms:
            assert (ctx.divide_atom_left(a, table) is not None) == (a.index in firsts)
            assert (ctx.divide_atom_right(table, a) is not None) == (a.index in lasts)


def test_divisibility_poset_b3(b3):
    # frozen left-divisibility relation on the 6 simple elements
    order = enumerate_simples(b3)
    names = {
        (0, 1, 2): "1",
        (1, 0, 2): "a",
        (0, 2, 1): "b",
        (2, 0, 1): "ab",
        (1, 2, 0): "ba",
        (2, 1, 0): "D",
    }
    divisors = {
        name: {
            names[d]
            for d in order
            if ref.left_divides(simple_element(b3, d), simple_element(b3, s))
        }
        for s, name in ((s, names[s]) for s in order)
    }
    assert divisors == {
        "1": {"1"},
        "a": {"1", "a"},
        "b": {"1", "b"},
        "ab": {"1", "a", "ab"},
        "ba": {"1", "b", "ba"},
        "D": {"1", "a", "b", "ab", "ba", "D"},
    }


def test_parse_examples(b3):
    assert parse_word("1 2 1") == g.BraidWord(0, (1, 2, 1))
    assert parse_word("D^-1 1") == g.BraidWord(-1, (1,))
    assert parse_word("d 2") == g.BraidWord(1, (2,))
    assert parse_word("") == g.BraidWord(0, ())
    assert parse_word("D^2 (1 2) . -1") == g.BraidWord(2, (1, 2, -1))
    x = g.element_from_word(b3, parse_word("D^-1 1"))
    assert (x.p, x.factors) == (-1, ((1, 0, 2),))


def test_parse_errors():
    with pytest.raises(WordParseError) as err:
        parse_word("1 x")
    assert err.value.position == 2
    with pytest.raises(WordParseError):
        parse_word("1 D")
    with pytest.raises(WordParseError):
        parse_word("0")
    with pytest.raises(WordParseError):
        g.element_from_word(g.braid_context(3), parse_word("3"))


def test_round_trips(b3, b5, rng):
    x = g.element_from_word(b3, parse_word("1 -2"))
    again = g.element_from_word(b3, parse_word(word_from_element(x)))
    assert again == x
    for _ in range(200):
        x = random_element(b5, rng, rng.randint(0, 9))
        assert g.element_from_word(b5, parse_word(word_from_element(x))) == x


def test_simple_words_evaluate_back(b5, rng):
    for _ in range(100):
        table = list(range(5))
        rng.shuffle(table)
        s = tuple(table)
        word = simple_to_word(b5, s)
        assert eval_word(5, word) == s
        assert len(word) == inversions(s)


def test_output_format(b3):
    x = g.element_from_word(b3, parse_word("1 2 1 1"))
    assert word_from_element(x) == "D^1 (1)"
    assert word_from_element(identity_element(b3)) == "D^0"
    assert word_from_element(delta_power_element(b3, -2)) == "D^-2"


# -- memoized overrides ----------------------------------------------------

#: Each memoized BraidContext override as (name, arguments from a pair).
MEMOIZED = [
    ("right_complement", lambda s, t: (s,)),
    ("left_complement", lambda s, t: (s,)),
    ("tau_power", lambda s, t: (s, 1)),
    ("tau_power", lambda s, t: (s, -3)),
    ("gcd_simple", lambda s, t: (s, t)),
    ("rgcd_simple", lambda s, t: (s, t)),
    ("local_sliding", lambda s, t: (s, t)),
    ("local_right_sliding", lambda s, t: (s, t)),
]


def _memo_pairs():
    # every pair at n = 4 and 5 reaches both the no-op and the strip path
    # of each kernel; the random pairs at large n make long strips step back
    for n in (4, 5):
        simples = enumerate_simples(g.braid_context(n))
        yield n, list(itertools.product(simples, repeat=2))
    for n, count in ((6, 1000), (8, 200), (12, 200), (16, 200)):
        ctx, rng = g.braid_context(n), random.Random(n)
        yield n, [(random_simple(ctx, rng), random_simple(ctx, rng)) for _ in range(count)]


@pytest.mark.parametrize(
    "n, pairs",
    list(_memo_pairs()),
    ids=["b4-all", "b5-all", "b6-random", "b8-random", "b12-random", "b16-random"],
)
def test_memoized_overrides_match_generic(n, pairs):
    ctx = g.braid_context(n)
    for name, arguments in MEMOIZED:
        generic = getattr(SimpleLatticeOps, name)
        for s, t in pairs:
            args = arguments(s, t)
            cold = getattr(ctx, name)(*args)
            warm = getattr(ctx, name)(*args)
            assert cold == warm == generic(ctx, *args), (name, args)


def test_memo_hits_are_charged_like_misses():
    ctx = g.braid_context(5)
    s, t = (1, 0, 3, 4, 2), (4, 2, 0, 1, 3)
    for name, arguments in MEMOIZED:
        for _ in range(3):
            with counted() as run:
                getattr(ctx, name)(*arguments(s, t))
            assert run.contract_calls == 1, name


def test_tau_zero_is_free():
    # τ⁰ is the identity; the generic route charges nothing for it either
    ctx = g.braid_context(5)
    s = (1, 0, 3, 4, 2)
    with counted() as run:
        assert ctx.tau_power(s, 0) == s == SimpleLatticeOps.tau_power(ctx, s, 0)
    assert run.contract_calls == 0


def _b5_pair(ctx):
    # a conjugate B5 pair that needs arrows
    x = g.element_from_word(ctx, parse_word("1 2 -3 4 4 2 1"))
    return x, x.conjugated(g.element_from_word(ctx, parse_word("3 -2 4")))


def _solve(x, y):
    result = g.solve_conjugacy(x, y)
    assert result.conjugate and x.conjugated(result.witness) == y
    return result


def test_warm_context_solves_alike():
    # solved on a cold and then a warm memo; the inputs are rebuilt, so
    # only the context's memos are warm
    ctx = g.braid_context(5)
    cold, warm = _solve(*_b5_pair(ctx)), _solve(*_b5_pair(ctx))
    assert cold.stats.r_max > 0  # arrows were computed
    assert warm.stats == cold.stats
    assert warm.witness == cold.witness


def test_same_elements_solve_alike():
    # the preferred prefix an element caches once slid must not make a
    # second solve of the same objects cheaper
    x, y = _b5_pair(g.braid_context(5))
    first, second = _solve(x, y), _solve(x, y)
    assert first.stats.contract_calls == 335
    assert second.stats == first.stats
    assert second.witness == first.witness


def test_threads_sharing_a_context_count_their_own_runs():
    # two threads solve different pairs on one context at the same time;
    # each solve reports the count it has when run alone
    ctx = g.braid_context(5)
    words = ("1 2 -3 4 2", "-4 1 2 -3 4 2 4")  # a conjugate pair within one circuit
    pairs = [
        lambda: _b5_pair(ctx),
        lambda: tuple(g.element_from_word(ctx, parse_word(w)) for w in words),
    ]
    alone = [_solve(*pair()).stats.contract_calls for pair in pairs]
    counts = [[], []]
    barrier = threading.Barrier(2)

    def work(k):
        x, y = pairs[k]()
        barrier.wait()
        for _ in range(10):
            counts[k].append(g.solve_conjugacy(x, y).stats.contract_calls)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert counts == [[alone[0]] * 10, [alone[1]] * 10]


def test_raising_run_restores_the_enclosing_run(monkeypatch):
    # a solve that raises still hands its calls to the run around it
    x, y = _b5_pair(g.braid_context(5))
    seen = []

    def failing(circuit):
        seen.append(current_run().contract_calls)
        raise InternalInvariantError("injected")

    monkeypatch.setattr(garside.conjugacy, "arrows_at", failing)
    with counted() as outer:
        with pytest.raises(InternalInvariantError):
            g.solve_conjugacy(x, y)
        assert current_run() is outer
    assert outer.contract_calls == seen[0] > 0
    monkeypatch.undo()
    assert _solve(x, y).stats.contract_calls == 335


def test_full_memo_is_bounded():
    ctx = g.braid_context(6)
    simples = enumerate_simples(ctx)
    pairs = list(itertools.islice(itertools.product(simples, repeat=2), MEMO_LIMIT + 500))
    first = []
    for s, t in pairs:
        first.append(ctx.local_sliding(s, t))
        assert ctx._slidings.cache_info().currsize <= MEMO_LIMIT
    assert ctx._slidings.cache_info().currsize < len(pairs)
    for k in range(0, len(pairs), 97):
        assert ctx.local_sliding(*pairs[k]) == first[k]
        assert first[k] == SimpleLatticeOps.local_sliding(ctx, *pairs[k])


def test_memo_shared_between_threads(monkeypatch):
    # a small bound makes the threads evict entries under each other
    monkeypatch.setattr(garside.braid, "MEMO_LIMIT", 50)
    ctx = g.braid_context(5)
    rng = random.Random(8)
    pairs = [(random_simple(ctx, rng), random_simple(ctx, rng)) for _ in range(300)]
    expected = [SimpleLatticeOps.local_sliding(ctx, s, t) for s, t in pairs]
    wrong = []

    def work(shift):
        for k in range(len(pairs)):
            i = (k + shift) % len(pairs)
            if ctx.local_sliding(*pairs[i]) != expected[i]:
                wrong.append(i)
            if ctx._slidings.cache_info().currsize > 50 + 8:
                wrong.append("bound")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(37 * j,)) for j in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_hot_entry_survives_full_memo(monkeypatch):
    # a full memo evicts its least recently used entry, so a pair looked up
    # every tenth call stays cached while 500 others stream past
    monkeypatch.setattr(garside.braid, "MEMO_LIMIT", 50)
    kernel = garside.braid._local_sliding
    runs = []

    def counted(s, t):
        runs.append((s, t))
        return kernel(s, t)

    monkeypatch.setattr(garside.braid, "_local_sliding", counted)
    ctx = g.braid_context(5)
    simples = enumerate_simples(ctx)
    hot = (simples[7], simples[11])
    others = [pair for pair in itertools.product(simples, repeat=2) if pair != hot][:500]
    expected = kernel(*hot)
    for k, pair in enumerate(others):
        if k % 10 == 0:
            assert ctx.local_sliding(*hot) == expected
        ctx.local_sliding(*pair)
    assert runs.count(hot) == 1
