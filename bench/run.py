"""Benchmark of the garside conjugacy solver.

Usage, from the root of a checkout::

    python3 bench/run.py --workload conj --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: an item (a pair of braid words) is
drawn from the seeded stream of :mod:`workloads`, solved, checked, and
only then is the next one drawn.  Only the solve is timed; it runs from
parsing the words to rendering the witness.  Items are solved until the
timed work adds up to ``--seconds``.  The three braid workloads call
``garside.cli.main(["conj", "-n", n, x, y, "--json"])`` in-process;
``generic`` calls ``solve_conjugacy`` over a contract-only view of the
braid structure and does what the CLI does around it.

Every verdict is checked against the answer the generator knows, and
every witness ``w`` against the Burau matrices: Burau(w⁻¹·x·w) must equal
Burau(y) (:mod:`burau`, which does not import ``garside``).

``--trace 0`` prints the end-to-end metrics:

* ``solves_per_s``: items solved per second of solve time;
* ``solve_ms.p50`` and ``solve_ms.p90``: time per item;
* ``setup_s``: median over several fresh imports of ``garside`` plus
  building the workload's contexts;
* ``peak_rss_mb``: peak resident memory of the process.

The speed of a shared host drifts by up to a fifth within a minute, so
the timings are scaled to a fixed machine speed: a small reference loop
that does not use ``garside`` is timed every REFERENCE_EVERY_S seconds
of solving, and each time is multiplied by REFERENCE_S over the median of
the reference samples taken around it.  The unscaled reference median is
printed with the metrics.

``--trace 1`` solves a fixed prefix of the stream twice, untraced and then
under :class:`tracer.Tracer`, requires identical verdicts, witnesses and
contract counts from both passes, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric by name with its unit.  The exit code is 0 only when
every item was right.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import pathlib
import resource
import statistics
import sys
import time

import burau
import workloads
from tracer import Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 21
#: Timings are reported at the speed where the reference loop takes this long.
REFERENCE_S = 0.0025
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW = 4
#: Items in a traced run: a fixed count, so that counts repeat exactly.
TRACE_ITEMS = {"conj": 400, "nonconj": 200, "long_circuit": 200, "generic": 200}

@dataclasses.dataclass(frozen=True)
class Outcome:
    """What one solve returned, as the benchmark compares it."""

    exit_code: int
    verdict: str | None
    witness: str | None
    contract_calls: int | None
    error: str | None = None


def load_garside():
    """Import ``garside`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "garside" / "__init__.py").is_file():
        raise SystemExit(f"error: no garside package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "garside" or m.startswith("garside.")]:
        del sys.modules[name]
    g = importlib.import_module("garside")
    importlib.import_module("garside.cli")
    if pathlib.Path(g.__file__).resolve().parent != SRC / "garside":
        raise SystemExit(f"error: garside imported from {g.__file__}")
    return g


def contract_view(g, inner):
    """Contract-only view of a braid context: atom divisions, no fast paths.

    Every derived operation takes the generic route in ``garside.simples``.
    ``n`` is kept so that the braid word functions accept the view.
    """

    class ContractView(g.GarsideContext):
        def __init__(self):
            self.n = inner.n
            super().__init__(inner.atoms, inner.identity, inner.delta)

        def _divide_atom_left(self, a, s):
            return inner._divide_atom_left(a, s)

        def _divide_atom_right(self, s, a):
            return inner._divide_atom_right(s, a)

        def _hash_simple(self, s):
            return hash(s)

        def check_simple(self, s):
            inner.check_simple(s)

    return ContractView()


def set_up(spec):
    """Import the package and build the workload's contexts."""
    g = load_garside()
    contexts = {n: g.braid_context(n) for n in spec.strands}
    views = {} if spec.via_cli else {n: contract_view(g, c) for n, c in contexts.items()}
    return g, contexts, views


def _reference_work() -> int:
    a = (1, 0, 3, 2, 5, 4, 7, 6)
    b = (0, 2, 1, 4, 3, 6, 5, 7)
    p = tuple(range(8))
    seen: dict = {}
    for i in range(1500):
        p = tuple(a[x] for x in p) if i % 3 else tuple(b[x] for x in p)
        seen[p] = seen.get(p, 0) + 1
    return len(seen)


def reference_s() -> float:
    """Seconds the fixed reference loop takes right now.

    The loop composes permutation tables, the same kind of work as the
    braid kernels, and never touches ``garside``.  The garbage collector
    is paused so that the heap the solver leaves behind cannot slow it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def normalized(times, before, refs):
    """Scale each time to the reference speed measured around it.

    ``before[i]`` indexes the last reference sample taken before
    ``times[i]``; the time is scaled by REFERENCE_S over the median of the
    samples within REFERENCE_WINDOW of that one.
    """
    w = REFERENCE_WINDOW
    return [
        t * REFERENCE_S / statistics.median(refs[max(0, j - w):j + w + 2])
        for t, j in zip(times, before)
    ]


def measure_setup(spec):
    times, refs = [], [reference_s()]
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        loaded = set_up(spec)
        times.append(time.perf_counter() - start)
        refs.append(reference_s())
    return statistics.median(normalized(times, range(len(times)), refs)), loaded


def cli_solver(g):
    def solve(item):
        out = io.StringIO()
        argv = ["conj", "-n", str(item.n), item.x, item.y, "--json"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = g.cli.main(argv)
            elapsed = time.perf_counter() - start
        if not out.getvalue():
            return elapsed, Outcome(code, None, None, None, "no output")
        payload = json.loads(out.getvalue())
        return elapsed, Outcome(
            code, payload["result"], payload["witness"], payload["stats"]["contract_calls"]
        )

    return solve


def generic_solver(g, views):
    def solve(item):
        ctx = views[item.n]
        start = time.perf_counter()
        x = g.element_from_word(ctx, g.parse_word(item.x))
        y = g.element_from_word(ctx, g.parse_word(item.y))
        result = g.solve_conjugacy(x, y)
        witness = None
        if result.conjugate:
            if x.conjugated(result.witness) != y:
                raise g.InternalInvariantError("conjugacy witness failed verification")
            witness = g.word_from_element(result.witness)
        elapsed = time.perf_counter() - start
        verdict = "conjugate" if result.conjugate else "not-conjugate"
        return elapsed, Outcome(
            0 if result.conjugate else 1, verdict, witness, result.stats.contract_calls
        )

    return solve


def attempt(solve, item):
    """Solve one item; an exception is a failed item, timed like the others."""
    start = time.perf_counter()
    try:
        return solve(item)
    except Exception as exc:  # noqa: BLE001 - any exception is a wrong answer
        return time.perf_counter() - start, Outcome(-1, None, None, None, repr(exc))


def check(item, outcome) -> bool:
    """Verdict, exit code and witness against the independent answer."""
    if outcome.error is not None:
        return False
    if item.conjugate:
        return (
            outcome.exit_code == 0
            and outcome.verdict == "conjugate"
            and outcome.witness is not None
            and burau.witness_holds(item.n, item.x, item.y, outcome.witness)
        )
    return (
        outcome.exit_code == 1
        and outcome.verdict == "not-conjugate"
        and outcome.witness is None
    )


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def roadmap_instances_regenerate(g) -> bool:
    """The three ROADMAP instances still come out byte-identical."""
    gen = workloads.Generator(g, {n: g.braid_context(n) for n in (7, 8, 9)})
    return all(
        (item.x, item.y) == words
        for key, words in workloads.ROADMAP_INSTANCES.items()
        for item in [workloads.roadmap_instance(gen, *key)]
    )


def run_timed(solve, stream, seconds):
    times, before, refs, failed = [], [], [reference_s()], 0
    busy = sampled = 0.0
    while busy < seconds:
        item = next(stream)
        elapsed, outcome = attempt(solve, item)
        times.append(elapsed)
        before.append(len(refs) - 1)
        busy += elapsed
        if busy - sampled >= REFERENCE_EVERY_S:
            refs.append(reference_s())
            sampled = busy
        failed += not check(item, outcome)
    refs.append(reference_s())
    return normalized(times, before, refs), refs, failed


def run_traced(solve, items):
    def solve_all():
        start = time.perf_counter()
        outcomes = [attempt(solve, item)[1] for item in items]
        return time.perf_counter() - start, outcomes

    plain_s, plain = solve_all()
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = []
        for item in items:
            traced.append(attempt(solve, item)[1])
            tracer.end_item()
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    failed = sum(not check(i, o) for i, o in zip(items, plain))
    same = plain == traced
    metrics = tracer.metrics()
    metrics["contract.ops"] = sum(o.contract_calls or 0 for o in plain)
    metrics["trace_overhead"] = traced_s / plain_s
    return metrics, failed, same


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]

    setup_s, (g, contexts, views) = measure_setup(spec)
    solve = cli_solver(g) if spec.via_cli else generic_solver(g, views)
    gen = workloads.Generator(g, contexts)
    stream = gen.stream(spec.name, args.seed)
    problems, notes = [], []
    if spec.name == "long_circuit" and not roadmap_instances_regenerate(g):
        problems.append("ROADMAP heavy-tail instances no longer regenerate identically")

    if args.trace:
        items = [next(stream) for _ in range(TRACE_ITEMS[spec.name])]
        metrics, failed, same = run_traced(solve, items)
        if not same:
            problems.append("traced and untraced passes disagree")
        attempted = len(items)
    else:
        times, refs, failed = run_timed(solve, stream, args.seconds)
        notes.append(f"reference loop: median {statistics.median(refs) * 1000:.3f} ms "
                     f"over {len(refs)} samples, timings scaled to {REFERENCE_S * 1000:g} ms")
        attempted = len(times)
        ms = [t * 1000 for t in times]
        metrics = {
            "solves_per_s": len(times) / sum(times),
            "solve_ms.p50": quantile(ms, 0.5),
            "solve_ms.p90": quantile(ms, 0.9),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    correct = not problems and failed == 0
    units = metric_units()

    print(f"workload {spec.name} seed {args.seed}: {attempted} items, "
          f"{gen.draws} draws, failed_frac {failed / attempted:.4f}")
    for line in problems + notes:
        print(line)
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
