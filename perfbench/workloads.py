"""The seeded workloads of the benchmark.

Each workload turns a seed into an endless stream of op inputs (plain
numbers), runs one op through the public ``ellharm`` API and checks its
output.  The stream is built from fixed-length *cycles*: every cycle holds
the same mix of op sizes and only the positions, geometries and charges are
drawn from the seed.  The timed phase runs whole cycles, so the op mix --
and with it the per-op cost -- is the same for every seed, and run-to-run
spread comes from the machine, not from the draw.

Library functions are looked up through their module at call time
(``ellharm.solvation.solvation_energy``), never bound at import, so the
tracer in ``tracer.py`` sees the calls the benchmark makes.

The workloads and why they were chosen:

charge-scan     fixed geometry, moving charges (MC/MD use).  Work is in
                coords, interior harmonics and solvation; the gamma table
                and the second-kind integrals run only in set-up, whose
                time is the cold cost of a new geometry.
geometry-sweep  every op is a cold solve on a new geometry: gamma table,
                Lame eigensolves and surface integrals dominate, and the
                module memos grow from op to op.  Near-sphere members of
                the born-limit family have the Born closed form.
exterior-field  Coulomb-kernel expansion at degree 16: the adaptive
                second-kind quadrature dominates; the exact 1/|r - r'| is
                the independent reference.
bem-oracle      the dense BEM convergence study, the only workload that
                touches ``ellharm.bem``; semi-analytic energies computed in
                set-up are the reference.

BENCHMARK.json lists only charge-scan and bem-oracle; README.md says why.
"""

from __future__ import annotations

import math

import numpy as np

import ellharm
import ellharm.bem
import ellharm.coords
import ellharm.harmonics
import ellharm.solvation

# charges are drawn uniformly from the scaled ball x^2/a^2 + y^2/b^2 +
# z^2/c^2 <= RHO^2; the README example charge (3, 4, 5) in the 15, 12, 10
# ellipsoid sits at 0.63 of the way to the surface
RHO = 0.65
WATER = (4.0, 80.0)

# probes: the first ops of DEFAULT_SEED's stream, rerun after the timed phase
# and compared with reference.json and with the independent references
DEFAULT_SEED = 0


def _charges(rng, count, axes):
    """``count`` charges uniform in the RHO-scaled ellipsoid, |q| in [0.2, 1]."""
    out = []
    for _ in range(count):
        v = rng.normal(size=3)
        v *= RHO * rng.random() ** (1.0 / 3.0) / np.linalg.norm(v)
        q = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0))
        out.append((float(v[0] * axes[0]), float(v[1] * axes[1]),
                    float(v[2] * axes[2]), q))
    return out


def _point_charges(charges):
    return [ellharm.solvation.PointCharge(*c) for c in charges]


def _energy(sys, charges, diel, N, table=None):
    return ellharm.solvation.solvation_energy(
        sys, _point_charges(charges), diel, N=N, table=table).energy_kcal


def _energy_ok(e):
    """Solvation energies are finite and negative for eps1 < eps2."""
    return math.isfinite(e) and e < 0.0


def _confocal_lambda(axes, point):
    """Largest root lambda of x^2/L + y^2/(L-h^2) + z^2/(L-k^2) = 1, L =
    lambda^2, by bisection, so that making inputs never calls ellharm."""
    a, b, c = axes
    h2, k2 = a * a - b * b, a * a - c * c
    x2, y2, z2 = (v * v for v in point)

    def g(L):
        return x2 / L + y2 / (L - h2) + z2 / (L - k2) - 1.0

    lo, hi = k2 * (1.0 + 1e-15), k2 + x2 + y2 + z2 + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(0.5 * (lo + hi))


class Workload:
    """A seeded op stream plus the untimed state its ops share."""

    name = ""
    cycle = 1       # ops per cycle; the timed phase runs whole cycles
    probe_ops = 1   # leading ops of DEFAULT_SEED's stream used as probes
    # the calibration kernel of worker.py whose time the ops' times follow
    # when the host's speed drifts ("interpreter", "memory"), or None;
    # run.py reports op times relative to it (README.md, Noise)
    calibration = None

    def __init__(self, seed):
        self.seed = seed

    def stream(self):
        """Endless iterator of op inputs for this workload's seed."""
        rng = np.random.default_rng(self.seed)
        k = 0
        while True:
            yield self.generate(rng, k)
            k += 1

    def inputs(self, count):
        it = self.stream()
        return [next(it) for _ in range(count)]

    def generate(self, rng, k):
        raise NotImplementedError

    def setup(self):
        """Untimed set-up: shared tables and a warm-up op."""

    def run(self, inp):
        """One op; returns a tuple of floats."""
        raise NotImplementedError

    def check(self, inp, out):
        """(passed, error against an independent reference or None)."""
        raise NotImplementedError

    def probe(self, inp):
        """Outputs and independent-reference error of a probe op."""
        out = self.run(inp)
        return out, self.check(inp, out)[1]


class ChargeScan(Workload):
    name = "charge-scan"
    AXES = (15.0, 12.0, 10.0)
    N = 12
    # an odd number of sizes puts the median op inside the middle size
    # instead of between two sizes of very different cost
    SIZES = (1, 3, 8, 16, 30)
    cycle = len(SIZES)
    probe_ops = 3
    calibration = "interpreter"

    def generate(self, rng, k):
        return _charges(rng, self.SIZES[k % self.cycle], self.AXES)

    def setup(self):
        self.sys = ellharm.coords.new_system(*self.AXES)
        self.diel = ellharm.solvation.DielectricModel(*WATER)
        self.table = ellharm.harmonics.build_normalization_table(self.sys, self.N)
        self.run([(3.0, 4.0, 5.0, 1.0)])

    def run(self, inp):
        return (_energy(self.sys, inp, self.diel, self.N, self.table),)

    def check(self, inp, out):
        return _energy_ok(out[0]), None

    def probe(self, inp):
        # inversion through the centre is an exact symmetry of the problem
        # that exercises every octant sign of the coordinate transform
        out = self.run(inp)
        mirrored = self.run([(-x, -y, -z, q) for x, y, z, q in inp])
        return out, abs(mirrored[0] - out[0]) / abs(out[0])


class GeometrySweep(Workload):
    name = "geometry-sweep"
    cycle = 3
    probe_ops = 2

    def generate(self, rng, k):
        slot = k % self.cycle
        if slot == 0:
            # born-limit family: a central unit charge in a near-sphere
            d = float(10.0 ** rng.uniform(-3.0, -1.0))
            return {"axes": (1.0 + d, 1.0 + d / 5.0, 1.0 + d / 10.0),
                    "charges": [(0.0, 0.0, 0.0, 1.0)], "N": 8, "delta": d}
        a = float(rng.uniform(5.0, 20.0))
        b = a * float(rng.uniform(0.55, 0.9))
        c = b * float(rng.uniform(0.55, 0.9))
        count = int(rng.integers(1, 4))
        return {"axes": (a, b, c), "charges": _charges(rng, count, (a, b, c)),
                "N": 8 if slot == 1 else 12, "delta": None}

    def setup(self):
        self.diel = ellharm.solvation.DielectricModel(*WATER)
        sys = ellharm.coords.new_system(3.0, 2.0, 1.0)
        _energy(sys, [(0.5, 0.2, 0.1, 1.0)], self.diel, 2)

    def run(self, inp):
        sys = ellharm.coords.new_system(*inp["axes"])
        return (_energy(sys, inp["charges"], self.diel, inp["N"]),)

    def check(self, inp, out):
        e = out[0]
        if inp["delta"] is None:
            return _energy_ok(e), None
        born = ellharm.solvation.born_energy(1.0, 1.0, self.diel)
        err = abs(e - born) / abs(born)
        # acceptance criterion 6's 1% limit; for larger delta the
        # asphericity itself moves the energy away from Born
        ok = _energy_ok(e) and (inp["delta"] > 1e-2 or err <= 1e-2)
        return ok, err


class ExteriorField(Workload):
    name = "exterior-field"
    AXES = (2.0, 1.5, 1.0)
    N = 16
    # field shell at this fraction of the way from the source shell to 2a
    RUNGS = (0.1, 0.3, 1.0)
    cycle = len(RUNGS)
    probe_ops = 3
    calibration = "interpreter"
    # an O(1) error (wrong sign, normalization or branch) fails this gate;
    # degree-16 truncation on the nearest rung stays well below it
    COULOMB_GATE = 1e-2

    def generate(self, rng, k):
        (src,) = _charges(rng, 1, self.AXES)
        src = src[:3]
        lam_s = _confocal_lambda(self.AXES, src)
        lam_f = lam_s + self.RUNGS[k % self.cycle] * (2.0 * self.AXES[0] - lam_s)
        a, b, c = self.AXES
        shell = np.array([lam_f, math.sqrt(lam_f ** 2 - a * a + b * b),
                          math.sqrt(lam_f ** 2 - a * a + c * c)])
        v = rng.normal(size=3)
        fld = tuple(float(x) for x in shell * v / np.linalg.norm(v))
        return {"source": src, "field": fld}

    def setup(self):
        self.sys = ellharm.coords.new_system(*self.AXES)
        self.table = ellharm.harmonics.build_normalization_table(self.sys, self.N)
        self.run({"source": (0.0, 0.0, 0.5), "field": (0.0, 0.0, 2.0)})

    def run(self, inp):
        exp = ellharm.harmonics.coulomb_expand(
            self.sys, inp["source"], inp["field"], self.N, table=self.table)
        return (exp.value,)

    def check(self, inp, out):
        exact = 1.0 / math.dist(inp["source"], inp["field"])
        err = abs(out[0] - exact) / exact
        return math.isfinite(out[0]) and err <= self.COULOMB_GATE, err


class BemOracle(Workload):
    name = "bem-oracle"
    AXES = (15.0, 12.0, 10.0)
    N = 12
    REFINEMENTS = (1, 2, 3, 4)
    POOL = 3   # charge sets per run; every op reuses the same four meshes
    probe_ops = 1
    calibration = "memory"

    def stream(self):
        rng = np.random.default_rng(self.seed)
        pool = [_charges(rng, int(rng.integers(1, 4)), self.AXES)
                for _ in range(self.POOL)]
        k = 0
        while True:
            yield {"charges": pool[k % self.POOL]}
            k += 1

    def setup(self):
        self.sys = ellharm.coords.new_system(*self.AXES)
        self.diel = ellharm.solvation.DielectricModel(*WATER)
        self.meshes = {r: ellharm.bem.mesh_ellipsoid(self.sys, r)
                       for r in self.REFINEMENTS}
        self.table = ellharm.harmonics.build_normalization_table(self.sys, self.N)
        self.semi = {}
        probes = type(self)(DEFAULT_SEED).inputs(self.probe_ops)
        for inp in self.inputs(self.POOL) + probes:
            self.semi[self._key(inp)] = _energy(
                self.sys, inp["charges"], self.diel, self.N, self.table)
        ellharm.bem.solve_bem(self.meshes[1], _point_charges([(3.0, 4.0, 5.0, 1.0)]),
                              self.diel)

    @staticmethod
    def _key(inp):
        return tuple(inp["charges"])

    def run(self, inp):
        semi = self.semi[self._key(inp)]
        study = ellharm.bem.convergence_study(
            self.meshes.__getitem__, _point_charges(inp["charges"]), self.diel,
            self.REFINEMENTS, reference=semi)
        return (*study.energies, study.richardson_limit, semi)

    def check(self, inp, out):
        *energies, limit, semi = out
        devs = [abs(e - semi) for e in energies]
        err = abs(limit - semi) / abs(semi)
        # acceptance criterion 7: deviations fall monotonically and the
        # Richardson limit is within 1% of the semi-analytic energy
        monotone = all(x > y for x, y in zip(devs, devs[1:]))
        return _energy_ok(semi) and monotone and err <= 0.01, err


WORKLOADS = {w.name: w for w in (ChargeScan, GeometrySweep, ExteriorField, BemOracle)}
