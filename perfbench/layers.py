"""Per-layer metrics from a traced timed phase.

Counts and times of the timed phase are given per op, so they compare
across commits whatever number of ops fits in the run.  Names that start
with ``setup.`` are totals of the set-up phase instead, where every
workload builds its normalization table (the cold cost of a new geometry:
gamma, Gauss-Legendre rules, Lame eigensolves) and its meshes.
"""

from __future__ import annotations

from tracer import Stats

# metric name -> unit, in report order
UNITS = {}


def _add(unit, *names):
    for n in names:
        UNITS[n] = unit


_add("count",
     "coords.cart_to_ell.calls",
     "numerics.gauss_legendre.calls", "numerics.solve_tridiagonal.calls",
     "numerics.adaptive_quad.calls", "numerics.adaptive_quad.evaluations",
     "numerics.adaptive_quad.subdivisions", "numerics.adaptive_quad.unconverged",
     "lame1.lame_function.calls", "lame1.eval_lame.calls", "lame1.eval_lame.points",
     "lame1.eval_lame_derivative.calls",
     "lame2.eval_I.calls", "lame2.surface_I.calls",
     "harmonics.gamma.calls", "harmonics.interior_solid.calls",
     "harmonics.exterior_solid.calls", "bem.panels",
     "trace.ops", "trace.spans",
     "setup.numerics.gauss_legendre.calls", "setup.numerics.solve_tridiagonal.calls",
     "setup.harmonics.gamma.calls", "setup.lame2.eval_I.calls")
_add("s",
     "coords.cart_to_ell.self_s",
     "numerics.gauss_legendre.self_s", "numerics.solve_tridiagonal.self_s",
     "numerics.adaptive_quad.self_s",
     "lame1.lame_function.self_s", "lame1.eval_lame.self_s",
     "lame2.eval_I.self_s",
     "harmonics.build_normalization_table.self_s", "harmonics.gamma.self_s",
     "harmonics.interior_solid.self_s", "harmonics.exterior_solid.self_s",
     "harmonics.coulomb_expand.self_s",
     "solvation.source_coefficients.self_s", "solvation.reaction_coefficients.self_s",
     "solvation.exterior_coefficients.self_s", "solvation.solvation_energy.self_s",
     "bem.assemble.self_s", "bem.solve_bem.self_s",
     "trace.untraced_s_per_op", "trace.traced_s_per_op",
     "setup.harmonics.build_normalization_table.self_s",
     "setup.numerics.gauss_legendre.self_s", "setup.harmonics.gamma.self_s",
     "setup.lame2.eval_I.self_s",
     "setup.bem.mesh_ellipsoid.self_s")
_add("ratio", "lame1.memo_hit_ratio", "lame2.surface_I.hit_ratio",
     "trace.overhead_frac")
_add("GB/s", "bem.assemble.gbytes_per_s_computed")
_add("GFLOP/s", "bem.solve.gflops_computed")

_EXTRA = {"numerics.adaptive_quad.evaluations", "numerics.adaptive_quad.subdivisions",
          "numerics.adaptive_quad.unconverged", "lame1.eval_lame.points"}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ops):
    """Every metric of UNITS except the ``trace.`` timings the runner adds."""

    def stat(phase, name):
        return tracer.stats.get((phase, name)) or Stats()

    per_op = max(ops, 1)
    out = {}
    for metric in UNITS:
        if metric.startswith("setup."):
            phase, name, scale = "setup", metric[len("setup."):], 1
        else:
            phase, name, scale = "timed", metric, per_op
        layer, _, field = name.rpartition(".")
        if name in _EXTRA:
            out[metric] = stat(phase, layer).extra[field] / scale
        elif field in ("calls", "self_s"):
            out[metric] = getattr(stat(phase, layer), field) / scale

    def timed(name):
        return stat("timed", name)

    lame_calls = timed("lame1.lame_function").calls
    out["lame1.memo_hit_ratio"] = (
        1.0 - timed("numerics.solve_tridiagonal").calls / lame_calls if lame_calls else 0.0)
    surf_calls = timed("lame2.surface_I").calls
    out["lame2.surface_I.hit_ratio"] = (
        1.0 - tracer.surface_I_misses() / surf_calls if surf_calls else 0.0)
    solve, assemble = timed("bem.solve_bem"), timed("bem.assemble")
    out["bem.panels"] = solve.extra["panels"] / per_op
    out["bem.assemble.gbytes_per_s_computed"] = _ratio(assemble.extra["bytes"],
                                                       assemble.self_s) / 1e9
    out["bem.solve.gflops_computed"] = _ratio(solve.extra["solve_flops"], solve.self_s) / 1e9
    out["trace.spans"] = sum(1 for s in tracer.spans if s[2] is not None) / per_op
    return out
