"""The benchmark's per-layer tracer still finds the solver's layers.

``bench/tracer.py`` locates its metrics by function and method names in
``garside``; a rename there would silently zero a metric.  These solves
must give every metric below a nonzero value, and the same answers and
contract counts traced as untraced.
"""

import importlib.util
import pathlib

import garside as g
import garside.cli  # noqa: F401 - the tracer wraps every layer, cli included

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracer", pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer_module)

# B4 pairs: conjugate with the target on another circuit, so arrows are
# needed, and not conjugate, so the whole graph is walked
PAIRS = [("1 2 3", "2 3 1"), ("1 2 3", "1 2 -3")]


def _solve(x_word, y_word):
    ctx = g.braid_context(4)
    x = g.element_from_word(ctx, g.parse_word(x_word))
    y = g.element_from_word(ctx, g.parse_word(y_word))
    result = g.solve_conjugacy(x, y)
    return result.conjugate, result.witness, result.stats.contract_calls


def test_tracer_sees_every_solver_layer():
    plain = [_solve(*pair) for pair in PAIRS]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        traced = []
        for pair in PAIRS:
            traced.append(_solve(*pair))
            tracer.end_item()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert [conjugate for conjugate, _, _ in plain] == [True, False]
    metrics = tracer.metrics()
    for name in (
        "conjugacy.circuits",
        "conjugacy.arrows_at.calls",
        "conjugacy.transport_cycle.calls",
        "elements.sweeps",
    ):
        assert metrics[name] > 0, name
