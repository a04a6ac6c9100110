"""Per-layer call counts and self times, recorded from outside the package.

:class:`Tracer` wraps the functions and methods of each ``garside`` module
(a *layer*) in timing wrappers while it is installed, and restores the
originals afterwards.  A wrapped function is replaced in every
``garside`` namespace that holds it, so names imported across modules
(``conjugacy`` takes ``transport`` from ``sliding``, ``cli`` takes
``solve_conjugacy`` from ``conjugacy``, the package re-exports nearly
everything) are traced at every call site.  Methods are wrapped on the
class that defines them, so a ``BraidContext`` override counts in
``braid`` and an inherited generic routine in ``simples``.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Spans are folded into per-function totals as they
close instead of being kept, so memory stays flat on long runs.
"""

from __future__ import annotations

import collections
import inspect
import sys
import time

LAYERS = ("cli", "conjugacy", "sliding", "elements", "braid", "simples", "contract")

#: Private helpers traced for the layer metrics that need them: the
#: normal-form sweeps of ``elements``.
PRIVATE = {"elements": ("_append", "_prepend", "_right_prepend")}

#: Dunder methods that do real work and are traced like public methods.
DUNDER = ("__mul__", "__pow__")


class Tracer:
    def __init__(self):
        # (layer, qualified name) -> [calls, self seconds, total seconds]
        self.records: dict[tuple[str, str], list] = {}
        self.counts: collections.Counter = collections.Counter()
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        self._item_circuits: set = set()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer, name, fn, observe=None):
        record = self.records.setdefault((layer, name), [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                record[0] += 1
                record[1] += elapsed - inner
                record[2] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observers(self):
        counts = self.counts

        def noop_sliding(args, result):
            counts["sliding_calls"] += 1
            counts["noop_slidings"] += result[0] == args[1]

        return {
            "circuit_of": lambda a, r: self._item_circuits.add(frozenset(r.elements)),
            "arrows_at": lambda a, r: counts.update(arrows=len(r)),
            "solve_conjugacy": lambda a, r: counts.update(vertices=r.stats.sc_size),
            "slide_to_first_repetition":
                lambda a, r: counts.update(trajectory_elements=len(r.elements)),
            "BraidContext.local_sliding": noop_sliding,
            "SimpleLatticeOps.local_sliding": noop_sliding,
        }

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "garside" or k.startswith("garside.")]
        observers = self._observers()
        for layer in LAYERS:
            module = sys.modules[f"garside.{layer}"]
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and (
                    not name.startswith("_") or name in PRIVATE.get(layer, ())
                ):
                    traced = self._wrap(layer, name, obj, observers.get(name))
                    for ns in modules:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, traced)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(layer, obj, observers)

    def _install_class(self, layer, cls, observers) -> None:
        for attr, obj in list(vars(cls).items()):
            qualified = f"{cls.__name__}.{attr}"
            if inspect.isfunction(obj) and (not attr.startswith("_") or attr in DUNDER):
                self._patch(cls, attr, self._wrap(layer, qualified, obj, observers.get(qualified)))
            elif isinstance(obj, property) and qualified == "Element.right_factors":
                self._patch(cls, attr, property(self._right_factors(obj.fget)))

    def _right_factors(self, fget):
        traced = self._wrap("elements", "Element.right_factors", fget)
        counts = self.counts

        def getter(x):
            if x._right is None:
                counts["right_nf_builds"] += 1
            return traced(x)

        return getter

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def end_item(self) -> None:
        """Close one solver call: fold its distinct circuits into the count."""
        self.counts["circuits"] += len(self._item_circuits)
        self._item_circuits.clear()

    # -- metrics -------------------------------------------------------------

    def calls(self, layer: str, *names: str) -> int:
        return sum(self.records.get((layer, n), (0,))[0] for n in names)

    def layer_calls(self, layer: str) -> int:
        return sum(r[0] for (lay, _), r in self.records.items() if lay == layer)

    def layer_self(self, layer: str) -> float:
        return sum(r[1] for (lay, _), r in self.records.items() if lay == layer)

    def self_time(self, layer: str, name: str) -> float:
        return self.records.get((layer, name), (0, 0.0, 0.0))[1]

    def total_time(self, layer: str, *names: str) -> float:
        return sum(self.records.get((layer, n), (0, 0.0, 0.0))[2] for n in names)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the two the caller measures itself."""
        c = self.counts
        bc = lambda m: self.calls("braid", f"BraidContext.{m}")  # noqa: E731
        sc = lambda m: self.calls("simples", f"SimpleLatticeOps.{m}")  # noqa: E731
        sweeps = self.calls("elements", *PRIVATE["elements"])
        slidings = (bc("local_sliding") + bc("local_right_sliding")
                    + sc("local_sliding") + sc("local_right_sliding"))
        trajectories = self.calls("sliding", "slide_to_first_repetition")
        arrows_at = self.calls("conjugacy", "arrows_at")
        return {
            "braid.calls": self.layer_calls("braid"),
            "braid.self_s": self.layer_self("braid"),
            "braid.local_sliding.calls": bc("local_sliding"),
            "braid.local_right_sliding.calls": bc("local_right_sliding"),
            "braid.gcd_simple.calls": bc("gcd_simple"),
            "braid.complement.calls": bc("right_complement") + bc("left_complement"),
            "braid.tau_power.calls": bc("tau_power"),
            "braid.word_s": self.total_time(
                "braid", "parse_word", "element_from_word", "word_from_element"),
            "cli.self_s": self.layer_self("cli"),
            "elements.calls": self.layer_calls("elements"),
            "elements.self_s": self.layer_self("elements"),
            "elements.sweeps": sweeps,
            "elements.slidings_per_sweep": slidings / sweeps if sweeps else 0.0,
            "elements.noop_sliding_frac":
                c["noop_slidings"] / c["sliding_calls"] if c["sliding_calls"] else 0.0,
            "elements.right_nf_builds": c["right_nf_builds"],
            "sliding.calls": self.layer_calls("sliding"),
            "sliding.self_s": self.layer_self("sliding"),
            "sliding.cyclic_sliding.calls": self.calls("sliding", "cyclic_sliding"),
            "sliding.preferred_suffix.self_s": self.self_time("sliding", "preferred_suffix"),
            "sliding.transport.calls": self.calls("sliding", "transport"),
            "sliding.pullback_step.calls": self.calls("sliding", "pullback_step"),
            "sliding.minimal_sss_conjugator.calls":
                self.calls("sliding", "minimal_sss_conjugator"),
            "sliding.trajectory_len":
                c["trajectory_elements"] / trajectories if trajectories else 0.0,
            "conjugacy.self_s": self.layer_self("conjugacy"),
            "conjugacy.arrows_at.calls": arrows_at,
            "conjugacy.arrows_at_s": self.total_time("conjugacy", "arrows_at"),
            "conjugacy.circuits": c["circuits"],
            "conjugacy.arrows_at_per_circuit":
                arrows_at / c["circuits"] if c["circuits"] else 0.0,
            "conjugacy.vertices": c["vertices"],
            "conjugacy.arrows": c["arrows"],
            "conjugacy.transport_cycle.calls": self.calls("conjugacy", "transport_cycle"),
            "conjugacy.pullback.calls":
                self.calls("conjugacy", "iterated_pullback_to_repetition"),
            "simples.calls": self.layer_calls("simples"),
            "simples.self_s": self.layer_self("simples"),
            "simples.gcd_simple.calls": sc("gcd_simple"),
            "simples.local_sliding.calls": sc("local_sliding"),
            "simples.complement.calls": sc("right_complement") + sc("left_complement"),
            "contract.divide_atom.calls": self.calls(
                "contract", "GarsideContext.divide_atom_left",
                "GarsideContext.divide_atom_right"),
            "contract.self_s": self.layer_self("contract"),
        }
