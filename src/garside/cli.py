"""Command-line interface: the ``garside`` command.

Each subcommand is one row of :data:`COMMANDS`: name, help text, word
arguments, handler and the options only that subcommand takes.
:func:`main` does what they share: it builds the context, parses the
words, calls the handler with one element per word and writes the
:class:`Reply` it returns, as text lines or, under ``--json``, as one
JSON object.

Exit codes: 0 success (and "conjugate" for ``conj``), 1 not conjugate,
2 usage or parse error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple

from .braid import (
    BraidContext,
    WordParseError,
    element_from_word,
    parse_word,
    word_from_element,
)
from .conjugacy import circuit_of, enumerate_sc, naive_solve, solve_conjugacy
from .contract import RunStats, counted
from .elements import Element, simple_element
from .errors import GarsideError, InternalInvariantError, OracleSizeError
from .sliding import cyclic_sliding

EXIT_OK = 0
EXIT_NOT_CONJUGATE = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3


class Reply(NamedTuple):
    """A handler's JSON fields, text lines and exit code; a reply without a
    result (``scg --dot``) is written as text even under ``--json``."""

    result: object
    lines: list[str]
    stats: RunStats | None = None
    witness: str | None = None
    code: int = EXIT_OK


def _nf(args, x: Element) -> Reply:
    word = word_from_element(x)
    return Reply(word, [word])


def _slide(args, x: Element) -> Reply:
    if args.steps < 0:
        raise GarsideError(f"--steps must be at least 0, got {args.steps}")
    for _ in range(args.steps):
        x = cyclic_sliding(x)
    word = word_from_element(x)
    return Reply(word, [word])


def _circuit(args, x: Element) -> Reply:
    with counted() as stats:
        circuit = circuit_of(x)
    elements = [word_from_element(v) for v in circuit.elements]
    conjugator = word_from_element(circuit.conjugator)
    result = {"period": circuit.period, "elements": elements, "conjugator": conjugator}
    lines = [f"period {circuit.period}", f"conjugator {conjugator}"]
    return Reply(result, lines + [f"  {w}" for w in elements], stats)


def _sc(args, x: Element) -> Reply:
    graph = enumerate_sc(x)
    vertices = [word_from_element(v) for v in graph.vertices]
    result = {"size": len(vertices), "vertices": vertices}
    lines = [f"size {len(vertices)}"] + [f"  {w}" for w in vertices]
    return Reply(result, lines, graph.stats)


def _scg(args, x: Element) -> Reply:
    graph = enumerate_sc(x)
    vertices = [word_from_element(v) for v in graph.vertices]
    arrows = [(src, dst, word_from_element(simple_element(x.ctx, label)))
              for src, dst, label in graph.arrows]
    if args.dot:
        lines = ["digraph scg {"]
        lines += [f'  v{i} [label="{w}"];' for i, w in enumerate(vertices)]
        lines += [f'  v{src} -> v{dst} [label="{w}"];' for src, dst, w in arrows]
        return Reply(None, lines + ["}"])
    labelled = [{"source": src, "target": dst, "label": w} for src, dst, w in arrows]
    result = {"vertices": vertices, "arrows": labelled}
    lines = [f"vertices {len(vertices)}, arrows {len(arrows)}"]
    lines += [f"  {src} -> {dst} : {w}" for src, dst, w in arrows]
    return Reply(result, lines, graph.stats)


def _conj(args, x: Element, y: Element) -> Reply:
    """Solve and verify the witness.  With ``--oracle``, also run the
    brute-force reference, require its verdict and verify its witness."""
    outcomes = [solve_conjugacy(x, y)]
    if args.oracle:
        outcomes.append(naive_solve(x, y))
    if outcomes[-1].conjugate != outcomes[0].conjugate:
        raise InternalInvariantError("solver and brute-force reference disagree")
    for o in outcomes:
        if o.conjugate and x.conjugated(o.witness) != y:
            raise InternalInvariantError("conjugacy witness failed verification")
    outcome = outcomes[0]
    if outcome.conjugate:
        witness = word_from_element(outcome.witness)
        return Reply("conjugate", ["conjugate", witness], outcome.stats, witness)
    result = "not-conjugate"
    return Reply(result, [result], outcome.stats, code=EXIT_NOT_CONJUGATE)


def _stats(args, x: Element) -> Reply:
    stats = enumerate_sc(x).stats
    lines = [f"{key} {value}" for key, value in sorted(stats.as_dict().items())]
    return Reply("ok", lines, stats)


#: name, help, word arguments, handler, and options only that subcommand takes
COMMANDS = (
    ("nf", "left normal form of a braid word", ("word",), _nf, {}),
    ("slide", "apply cyclic sliding", ("word",), _slide,
     {"--steps": dict(type=int, default=1)}),
    ("circuit", "slide to a circuit and report it", ("word",), _circuit, {}),
    ("sc", "enumerate the sliding-circuit conjugates", ("word",), _sc, {}),
    ("scg", "the sliding-circuit graph", ("word",), _scg,
     {"--dot": dict(action="store_true", help="emit a DOT digraph")}),
    ("conj", "decide conjugacy of two braid words", ("word_x", "word_y"), _conj,
     {"--oracle": dict(
         action="store_true",
         help="cross-check against the brute-force reference (desk scale)",
     )}),
    ("stats", "instrumentation counters for one input", ("word",), _stats, {}),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``garside`` parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="garside",
        description="Normal forms, cyclic sliding and conjugacy in braid groups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, words, handler, options in COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("-n", type=int, required=True, help="number of strands")
        for word in words:
            sub.add_argument(word, help="braid word")
        sub.add_argument("--json", action="store_true", help="machine-readable output")
        sub.add_argument("--seed", type=int, default=None, help="seed echoed in output")
        for flag, spec in options.items():
            sub.add_argument(flag, **spec)
        sub.set_defaults(words=words, handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    texts = [getattr(args, word) for word in args.words]
    try:
        ctx = BraidContext(args.n)
        elements = [element_from_word(ctx, parse_word(text)) for text in texts]
        reply = args.handler(args, *elements)
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
    if args.json and reply.result is not None:
        payload = {
            "input": texts,
            "n": args.n,
            "seed": args.seed,
            "result": reply.result,
            "witness": reply.witness,
            "stats": reply.stats.as_dict() if reply.stats is not None else None,
        }
        out = json.dumps(payload, sort_keys=True) + "\n"
    else:
        out = "".join(line + "\n" for line in reply.lines)
    sys.stdout.write(out)
    return reply.code


if __name__ == "__main__":
    sys.exit(main())
