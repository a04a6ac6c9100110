"""Command-line interface.

Subcommands: ``nf`` (normal form), ``slide`` (iterated cyclic sliding),
``circuit`` (slide to a circuit and report its period), ``sc`` (enumerate
the invariant vertex set), ``scg`` (the full graph, optionally as DOT),
``conj`` (decide/search conjugacy), ``stats`` (instrumentation for one
input) and ``oracle-check`` (cross-check the solver against the
brute-force reference at desk scale).

Exit codes: 0 success (and "conjugate" for ``conj``), 1 not conjugate,
2 usage or parse error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .braid import (
    BraidContext,
    WordParseError,
    element_from_word,
    parse_word,
    word_from_element,
)
from .conjugacy import (
    ConjugacyResult,
    RunStats,
    circuit_of,
    enumerate_sc,
    naive_solve,
    solve_conjugacy,
)
from .elements import Element
from .errors import GarsideError, InternalInvariantError, OracleSizeError
from .sliding import cyclic_sliding

EXIT_OK = 0
EXIT_NOT_CONJUGATE = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3


def _element(ctx: BraidContext, text: str) -> Element:
    return element_from_word(ctx, parse_word(text))


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _payload(args, words, result, witness, stats: RunStats | None) -> dict:
    return {
        "input": list(words),
        "n": args.n,
        "seed": getattr(args, "seed", None),
        "result": result,
        "witness": witness,
        "stats": stats.as_dict() if stats is not None else None,
    }


def _cmd_nf(args) -> int:
    ctx = BraidContext(args.n)
    word = word_from_element(_element(ctx, args.word))
    _emit(args, _payload(args, [args.word], word, None, None), [word])
    return EXIT_OK


def _cmd_slide(args) -> int:
    ctx = BraidContext(args.n)
    x = _element(ctx, args.word)
    for _ in range(args.steps):
        x = cyclic_sliding(x)
    word = word_from_element(x)
    _emit(args, _payload(args, [args.word], word, None, None), [word])
    return EXIT_OK


def _cmd_circuit(args) -> int:
    ctx = BraidContext(args.n)
    x = _element(ctx, args.word)
    stats = RunStats()
    start_calls = ctx.ops.calls
    circuit = circuit_of(x, stats)
    stats.contract_calls = ctx.ops.calls - start_calls
    elements = [word_from_element(v) for v in circuit.elements]
    result = {
        "period": circuit.period,
        "elements": elements,
        "conjugator": word_from_element(circuit.conjugator),
    }
    lines = [f"period {circuit.period}", f"conjugator {result['conjugator']}"]
    lines += [f"  {w}" for w in elements]
    _emit(args, _payload(args, [args.word], result, None, stats), lines)
    return EXIT_OK


def _cmd_sc(args) -> int:
    ctx = BraidContext(args.n)
    graph = enumerate_sc(_element(ctx, args.word))
    vertices = [word_from_element(v) for v in graph.vertices]
    result = {"size": len(vertices), "vertices": vertices}
    lines = [f"size {len(vertices)}"] + [f"  {w}" for w in vertices]
    _emit(args, _payload(args, [args.word], result, None, graph.stats), lines)
    return EXIT_OK


def _cmd_scg(args) -> int:
    from .elements import simple_element

    ctx = BraidContext(args.n)
    graph = enumerate_sc(_element(ctx, args.word))
    vertices = [word_from_element(v) for v in graph.vertices]
    arrows = [
        {
            "source": src,
            "target": dst,
            "label": word_from_element(simple_element(ctx, label)),
        }
        for src, dst, label in graph.arrows
    ]
    if args.dot:
        lines = ["digraph scg {"]
        for i, w in enumerate(vertices):
            lines.append(f'  v{i} [label="{w}"];')
        for a in arrows:
            lines.append(
                f'  v{a["source"]} -> v{a["target"]} [label="{a["label"]}"];'
            )
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
        return EXIT_OK
    result = {"vertices": vertices, "arrows": arrows}
    lines = [f"vertices {len(vertices)}, arrows {len(arrows)}"]
    lines += [f'  {a["source"]} -> {a["target"]} : {a["label"]}' for a in arrows]
    _emit(args, _payload(args, [args.word], result, None, graph.stats), lines)
    return EXIT_OK


def _solve_checked(x: Element, y: Element, oracle: bool) -> ConjugacyResult:
    """Solve and verify the witness.  With ``oracle``, also run the
    brute-force reference, require its verdict and verify its witness."""
    outcome = solve_conjugacy(x, y)
    outcomes = [outcome]
    if oracle:
        reference = naive_solve(x, y)
        if reference.conjugate != outcome.conjugate:
            raise InternalInvariantError("solver and brute-force reference disagree")
        outcomes.append(reference)
    for o in outcomes:
        if o.conjugate and x.conjugated(o.witness) != y:
            raise InternalInvariantError("conjugacy witness failed verification")
    return outcome


def _cmd_conj(args) -> int:
    ctx = BraidContext(args.n)
    x = _element(ctx, args.word_x)
    y = _element(ctx, args.word_y)
    outcome = _solve_checked(x, y, args.oracle)
    witness_word = word_from_element(outcome.witness) if outcome.conjugate else None
    result = "conjugate" if outcome.conjugate else "not-conjugate"
    lines = [result] if witness_word is None else [result, witness_word]
    _emit(
        args,
        _payload(args, [args.word_x, args.word_y], result, witness_word, outcome.stats),
        lines,
    )
    return EXIT_OK if outcome.conjugate else EXIT_NOT_CONJUGATE


def _cmd_stats(args) -> int:
    ctx = BraidContext(args.n)
    graph = enumerate_sc(_element(ctx, args.word))
    stats = graph.stats
    lines = [f"{key} {value}" for key, value in sorted(stats.as_dict().items())]
    _emit(args, _payload(args, [args.word], "ok", None, stats), lines)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    ctx = BraidContext(args.n)
    x = _element(ctx, args.word_x)
    y = _element(ctx, args.word_y)
    outcome = _solve_checked(x, y, oracle=True)
    result = "agree:" + ("conjugate" if outcome.conjugate else "not-conjugate")
    _emit(args, _payload(args, [args.word_x, args.word_y], result, None, outcome.stats), [result])
    return EXIT_OK


def _add_common(sub, *words: str) -> None:
    sub.add_argument("-n", type=int, required=True, help="number of strands")
    for word in words:
        sub.add_argument(word, help="braid word")
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--seed", type=int, default=None, help="seed echoed in output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``garside`` parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="garside",
        description="Normal forms, cyclic sliding and conjugacy in braid groups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("nf", help="left normal form of a braid word")
    _add_common(sub, "word")
    sub.set_defaults(handler=_cmd_nf)

    sub = subs.add_parser("slide", help="apply cyclic sliding")
    _add_common(sub, "word")
    sub.add_argument("--steps", type=int, default=1)
    sub.set_defaults(handler=_cmd_slide)

    sub = subs.add_parser("circuit", help="slide to a circuit and report it")
    _add_common(sub, "word")
    sub.set_defaults(handler=_cmd_circuit)

    sub = subs.add_parser("sc", help="enumerate the sliding-circuit conjugates")
    _add_common(sub, "word")
    sub.set_defaults(handler=_cmd_sc)

    sub = subs.add_parser("scg", help="the sliding-circuit graph")
    _add_common(sub, "word")
    sub.add_argument("--dot", action="store_true", help="emit a DOT digraph")
    sub.set_defaults(handler=_cmd_scg)

    sub = subs.add_parser("conj", help="decide conjugacy of two braid words")
    _add_common(sub, "word_x", "word_y")
    sub.add_argument(
        "--oracle", action="store_true",
        help="cross-check against the brute-force reference (desk scale)",
    )
    sub.set_defaults(handler=_cmd_conj)

    sub = subs.add_parser("stats", help="instrumentation counters for one input")
    _add_common(sub, "word")
    sub.set_defaults(handler=_cmd_stats)

    sub = subs.add_parser(
        "oracle-check", help="run solver and brute-force reference, compare"
    )
    _add_common(sub, "word_x", "word_y")
    sub.set_defaults(handler=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except WordParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_USAGE
    except OracleSizeError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_USAGE
    except InternalInvariantError as exc:
        sys.stderr.write(f"internal invariant violated: {exc}\n")
        return EXIT_INVARIANT
    except GarsideError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
