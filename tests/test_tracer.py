"""The benchmark's per-layer tracer still finds the solver's layers.

``bench/tracer.py`` locates its metrics by function and method names in
``garside``; a rename there would silently zero a metric.  These solves
and one in-process ``garside conj`` call must give every count-valued
metric below, and the CLI's self time, a nonzero value, and the same
answers, contract counts and output traced as untraced.  The generic
gcd, local-sliding and complement counts of ``simples`` are left out: a
braid context answers those with its own overrides.
"""

import contextlib
import importlib.util
import io
import pathlib

import garside as g
import garside.cli

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracer", pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer_module)

# B4 pairs: conjugate with the target on another circuit, so arrows are
# needed, and not conjugate, so the whole graph is walked
PAIRS = [("1 2 3", "2 3 1"), ("1 2 3", "1 2 -3")]
CONJ = ["conj", "-n", "4", "1 2 3", "2 3 1", "--json"]

COUNTED = [
    "braid.calls", "braid.local_sliding.calls", "braid.local_right_sliding.calls",
    "braid.gcd_simple.calls", "braid.complement.calls", "braid.tau_power.calls",
    "elements.calls", "elements.sweeps", "elements.right_nf_builds",
    "sliding.calls", "sliding.cyclic_sliding.calls", "sliding.transport.calls",
    "sliding.pullback_step.calls", "sliding.minimal_sss_conjugator.calls",
    "conjugacy.arrows_at.calls", "conjugacy.circuits", "conjugacy.vertices",
    "conjugacy.arrows", "conjugacy.transport_cycle.calls", "conjugacy.pullback.calls",
    "simples.calls", "contract.divide_atom.calls",
]


def _solve(x_word, y_word):
    ctx = g.braid_context(4)
    x = g.element_from_word(ctx, g.parse_word(x_word))
    y = g.element_from_word(ctx, g.parse_word(y_word))
    result = g.solve_conjugacy(x, y)
    return result.conjugate, result.witness, result.stats.contract_calls


def _cli():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = garside.cli.main(CONJ)
    return code, out.getvalue()


def test_tracer_sees_every_solver_layer():
    plain = [_solve(*pair) for pair in PAIRS], _cli()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        solves = []
        for pair in PAIRS:
            solves.append(_solve(*pair))
            tracer.end_item()
        traced = solves, _cli()
        tracer.end_item()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert [conjugate for conjugate, _, _ in plain[0]] == [True, False]
    metrics = tracer.metrics()
    for name in COUNTED + ["cli.self_s"]:
        assert metrics[name] > 0, name
