"""Outside-in tracer: spans around calls into nullinf's public entry points.

Nothing under ``src/`` is edited.  ``install`` replaces each traced function
or method with a timing wrapper and re-binds every name that still points at
the original, in all loaded ``nullinf`` modules and in the CLI's runner
table, because a name brought in with ``from ... import`` is looked up in
the importing module and would otherwise bypass the wrapper.  ``restore``
puts every original back.  Untraced runs never call ``install``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


def _size(x):
    return int(getattr(x, "size", 1))


def _bytes(*arrays):
    return sum(int(a.nbytes) for a in arrays)


# (module, attribute path, span name, work counters, their values from the result)
ENTRY_POINTS = [
    ("compactify", "inverse_tortoise", "compactify.inverse_tortoise",
     ("points",), lambda r: (_size(r),)),
    ("metrics", "MetricField.__init__", "metrics.MetricField.init", (), None),
    ("metrics", "MetricField.at", "metrics.MetricField.at",
     ("points", "bytes_out"), lambda ev: (_size(ev.q), _bytes(ev.g, ev.dg, ev.d2g))),
    ("metrics", "schwarzschild_exact", "metrics.schwarzschild_exact",
     ("points", "bytes_out"), lambda se: (_size(se.r), _bytes(se.gamma, se.riemann, se.ricci))),
    ("tensors", "christoffel", "tensors.christoffel", ("points",), lambda gam: (_size(gam) // 64,)),
    ("tensors", "riemann_ricci", "tensors.riemann_ricci", ("points",), lambda r: (_size(r[1]) // 16,)),
    # "sweeps" is reported as geodesics.picard_sweeps
    ("geodesics", "integrate_radial_null_geodesic", "geodesics.integrate_radial_null_geodesic",
     ("geodesics", "sweeps"), lambda traj: (len(traj.target_angles), traj.iterations)),
    ("bondi", "news_compatible_field", "bondi.news_compatible_field", (), None),
    ("bondi", "NewsTensor.__init__", "bondi.NewsTensor.init", (), None),
    ("bondi", "Congruence.__init__", "bondi.Congruence.init", (), None),
    ("bondi", "Congruence.cut", "bondi.Congruence.cut", (), None),
    ("bondi", "area_radius", "bondi.area_radius", (), None),
    ("bondi", "hawking_mass_of_cut", "bondi.hawking_mass_of_cut", (), None),
    ("bondi", "evolve_mass_aspect", "bondi.evolve_mass_aspect", (), None),
    ("leading_terms", "excess_decay_slopes", "leading_terms.excess_decay_slopes",
     ("lines",), lambda lines: (len(lines),)),
    ("indexsets", "solve_index_recursion", "indexsets.solve_index_recursion",
     ("iterations",), lambda res: (res.iterations_used,)),
    ("modelpde", "solve_damped_mode", "modelpde.solve_damped_mode", ("cells",), lambda sol: (_size(sol.u),)),
    ("modelpde", "newton_iterate", "modelpde.newton_iterate", ("steps",), lambda out: (len(out[0]),)),
    ("cli", "run_index_sets", "cli.run_index_sets", (), None),
    ("cli", "run_model_pde", "cli.run_model_pde", (), None),
    ("cli", "run_geodesics", "cli.run_geodesics", (), None),
    ("cli", "run_bondi", "cli.run_bondi", (), None),
    ("cli", "run_verify_appendix", "cli.run_verify_appendix", (), None),
]


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def _wrap(self, name, fn, keys, counter):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            idx = len(tracer.spans)
            span = Span(name, parent, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_s += span.end - span.start
            if counter is not None:
                for key, value in zip(keys, counter(out)):
                    full = f"{name}.{key}"
                    tracer.counts[full] = tracer.counts.get(full, 0) + value
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _set(self, namespace, key, value):
        if isinstance(namespace, dict):
            self._undo.append((namespace, key, namespace[key]))
            namespace[key] = value
        else:
            self._undo.append((namespace, key, getattr(namespace, key)))
            setattr(namespace, key, value)

    def install(self):
        import nullinf.cli  # noqa: F401  (the runner table is re-bound too)

        loaded = [m for n, m in sys.modules.items() if n == "nullinf" or n.startswith("nullinf.")]
        for mod_name, path, name, keys, counter in ENTRY_POINTS:
            owner = sys.modules[f"nullinf.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, keys, counter)
            self._set(owner, attr, wrapper)
            if outer:
                continue  # methods are looked up on the class
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
            runners = sys.modules["nullinf.cli"].RUNNERS
            for key, value in list(runners.items()):
                if value is original:
                    self._set(runners, key, wrapper)

    def restore(self):
        while self._undo:
            namespace, key, original = self._undo.pop()
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)

    def layers(self):
        """calls, self time and work counts per entry point."""
        out = {}
        for _, _, name, keys, _ in ENTRY_POINTS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            for key in keys:
                out[f"{name}.{key}"] = self.counts.get(f"{name}.{key}", 0)
        for span in self.spans:
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += (span.end - span.start) - span.child_s
        # Picard sweeps summed over congruences, and the mean wall time of one
        # sweep (the final connection evaluation is shared out among them)
        name = "geodesics.integrate_radial_null_geodesic"
        sweeps = out.pop(f"{name}.sweeps")
        total = sum(s.end - s.start for s in self.spans if s.name == name)
        out["geodesics.picard_sweeps"] = sweeps
        out["geodesics.sweep_s"] = total / sweeps if sweeps else 0.0
        return out
