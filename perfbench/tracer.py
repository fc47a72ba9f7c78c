"""Outside-in tracer for the ``ellharm`` layers.

The library imports its layer functions by name (``from .lame1 import
eval_lame``), so patching only the defining module would miss the calls
made from ``harmonics``, ``lame2`` and ``solvation``.  ``Tracer.install``
therefore replaces the function at *every* ``ellharm.*`` module binding that
holds it, and ``uninstall`` puts the originals back.

Coarse calls get a span each (id, parent span, op id, name, start, end).
Hot leaves, called thousands of times per op, get only aggregated counters.
Both kinds keep calls, total and self time, where self time is the duration
minus the time covered by traced calls made inside it.  Spans are kept in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) -> metric prefix; the prefix names the layer
SPANS = {
    ("numerics", "gauss_legendre"): "numerics.gauss_legendre",
    ("numerics", "solve_tridiagonal"): "numerics.solve_tridiagonal",
    ("numerics", "adaptive_quad"): "numerics.adaptive_quad",
    ("lame2", "eval_I"): "lame2.eval_I",
    ("lame2", "surface_I"): "lame2.surface_I",
    ("harmonics", "gamma"): "harmonics.gamma",
    ("harmonics", "build_normalization_table"): "harmonics.build_normalization_table",
    ("harmonics", "exterior_solid"): "harmonics.exterior_solid",
    ("harmonics", "coulomb_expand"): "harmonics.coulomb_expand",
    ("solvation", "source_coefficients"): "solvation.source_coefficients",
    ("solvation", "reaction_coefficients"): "solvation.reaction_coefficients",
    ("solvation", "exterior_coefficients"): "solvation.exterior_coefficients",
    ("solvation", "solvation_energy"): "solvation.solvation_energy",
    ("bem", "mesh_ellipsoid"): "bem.mesh_ellipsoid",
    ("bem", "convergence_study"): "bem.convergence_study",
    ("bem", "solve_bem"): "bem.solve_bem",
    ("_kernels", "assemble_influence_matrix"): "bem.assemble",
}
COUNTERS = {
    ("coords", "cart_to_ell"): "coords.cart_to_ell",
    ("lame1", "lame_function"): "lame1.lame_function",
    ("lame1", "eval_lame"): "lame1.eval_lame",
    ("lame1", "eval_lame_derivative"): "lame1.eval_lame_derivative",
    ("harmonics", "interior_solid"): "harmonics.interior_solid",
}


class Stats:
    __slots__ = ("calls", "total_s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra = defaultdict(float)


def _extras(name, args, result, extra):
    """Work counts read from the arguments and results of a call."""
    if name == "lame1.eval_lame":
        extra["points"] += np.size(args[1])
    elif name == "numerics.adaptive_quad":
        extra["evaluations"] += result.evaluations
        extra["subdivisions"] += result.subdivisions
        extra["unconverged"] += not result.converged
    elif name == "bem.solve_bem":
        extra["panels"] += result.panel_count
        extra["solve_flops"] += 2.0 / 3.0 * result.panel_count ** 3
    elif name == "bem.assemble":
        extra["bytes"] += 8.0 * len(args[0]) ** 2


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stats)   # (phase, name) -> Stats
        self.spans = []                   # (id, parent, op, name, start, end)
        self.phase = "setup"
        self.op = None
        self._stack = []                  # frames: [child_s, nearest span id]
        self._patched = []                # (module, attribute, original)

    def _wrap(self, name, fn, span):
        stack, spans, stats = self._stack, self.spans, self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            sid = len(spans) if span else parent
            if span:
                spans.append(None)        # reserve the id
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                st = stats[(self.phase, name)]
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[0]
                if span:
                    spans[sid] = (sid, parent, self.op, name, t0, t1)
            _extras(name, args, result, st.extra)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function at every ``ellharm.*`` binding."""
        import ellharm  # noqa: F401  (all layer modules are now imported)

        wrappers = {}
        for table, span in ((SPANS, True), (COUNTERS, False)):
            for (mod, attr), name in table.items():
                fn = getattr(sys.modules[f"ellharm.{mod}"], attr)
                wrappers[id(fn)] = self._wrap(name, fn, span)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ellharm" or modname.startswith("ellharm.")):
                continue
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None and w.__wrapped__ is val:
                    setattr(mod, attr, w)
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def surface_I_misses(self):
        """Timed-phase surface_I calls that computed the integral (an eval_I
        span whose parent is a surface_I span) rather than hit the memo."""
        surf = {s[0] for s in self.spans
                if s[3] == "lame2.surface_I" and s[2] is not None}
        return sum(1 for s in self.spans if s[3] == "lame2.eval_I" and s[1] in surf)
