"""Command-line frontend.

Subcommands
-----------
transform     Cartesian -> ellipsoidal coordinate table with round-trip residuals
lame          evaluate a first-kind function E_n^p on a grid of s values
harmonic      evaluate interior/exterior solid harmonics at Cartesian points
gamma         table of normalization constants up to a degree
coulomb       degree-by-degree convergence of the Coulomb-kernel expansion
solvation     semi-analytic solvation energy for a charge file
born-limit    near-sphere sweep of the solvation energy toward the Born value
bem-validate  BEM refinement study cross-checked against the semi-analytic energy

Exit codes: 0 success, 2 validation error, 3 numerical failure.  Failures
emit a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import sys as _sys

import numpy as np

from . import bem, coords, harmonics, solvation
from .errors import NumericalError, RangeViolation, SingularLowerLimit, ValidationError
from .lame1 import eval_lame, lame_function

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------

def _parse_triple(text, name):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"{name} must be three comma-separated numbers")
    try:
        values = tuple(float(v) for v in parts)
    except ValueError as exc:
        raise ValidationError(f"bad {name}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"{name} must be finite, got {text!r}")
    return values


def read_charge_file(path):
    """One charge per line: ``x y z q``, blank lines and # comments ignored."""
    charges = []
    try:
        fh = open(path)
    except OSError as exc:
        raise ValidationError(f"cannot read charge file {path}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValidationError(
                    f"{path}:{lineno}: expected 'x y z q', got {line!r}")
            try:
                x, y, z, q = map(float, parts)
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: non-numeric field") from None
            if not all(map(math.isfinite, (x, y, z, q))):
                raise ValidationError(f"{path}:{lineno}: non-finite field in {line!r}")
            charges.append(solvation.PointCharge(x, y, z, q))
    if not charges:
        raise ValidationError(f"charge file {path} contains no charges")
    return charges


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_table(args, keys, rows, units, extra=None):
    """Emit rows as CSV (default) or JSON, to --out or stdout.  The columns
    are the rows' keys, and the configuration the values of the flags that
    the space-separated ``keys`` name, in that order."""
    config = {key: getattr(args, key) for key in keys.split()}
    columns = list(rows[0])
    payload_hash = _config_hash(config)
    if args.format == "json":
        doc = {"config": config, "config_hash": payload_hash, "units": units,
               "columns": columns, "rows": rows}
        if extra:
            doc["diagnostics"] = extra
        text = json.dumps(doc, indent=2, default=float) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# config_hash: {payload_hash}\n")
        buf.write(f"# units: {units}\n")
        for key, val in sorted(config.items()):
            buf.write(f"# {key}: {val}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(row.values() for row in rows)
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write --out {args.out}: {exc}") from None
    else:
        _sys.stdout.write(text)


def _system(args):
    a, b, c = _parse_triple(args.semiaxes, "--semiaxes")
    return coords.new_system(a, b, c)


def _points(text):
    return [_parse_triple(chunk, "--points entry") for chunk in text.split(";")]


def _semi_analytic(args):
    """The system, --charges, dielectric and semi-analytic energy report of a run."""
    sys = _system(args)
    if not args.charges:
        raise ValidationError(f"{args.subcommand} needs --charges FILE")
    charges = read_charge_file(args.charges)
    diel = solvation.DielectricModel(args.eps1, args.eps2)
    return sys, charges, diel, solvation.solvation_energy(sys, charges, diel, N=args.order)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_transform(args):
    sys = _system(args)
    if args.brick is not None:
        n = args.brick
        if n <= 0:
            raise ValidationError(f"--brick must be positive, got {n}")
        # n^3 points per octant strictly inside each octant's valid box
        base = np.linspace(0.15, 0.85, n)
        signs = (1, -1)
        pts = [(sx * x, sy * y, sz * z) for sx, sy, sz, x, y, z in itertools.product(
            signs, signs, signs, base * sys.a * 0.9, base * sys.b * 0.9, base * sys.c * 0.9)]
    elif args.points:
        pts = _points(args.points)
    else:
        raise ValidationError("transform needs --points or --brick")
    rows = []
    for (x, y, z) in pts:
        p = coords.cart_to_ell(sys, x, y, z)
        xr, yr, zr = coords.ell_to_cart(sys, p)
        rows.append({
            "x": x, "y": y, "z": z,
            "lambda": p.lam, "mu": p.mu, "nu": p.nu,
            "s_lambda": p.s_lambda, "s_mu": p.s_mu, "s_nu": p.s_nu,
            "roundtrip_residual": max(abs(xr - x), abs(yr - y), abs(zr - z)),
        })
    write_table(args, "semiaxes subcommand brick points", rows,
                units="lengths in input units (Angstrom)")


def cmd_lame(args):
    sys = _system(args)
    f = lame_function(sys, args.degree, args.p)
    svals = [float(v) for v in args.s.split(",")]
    if not all(map(math.isfinite, svals)):
        raise ValidationError(f"--s values must be finite, got {args.s!r}")
    with np.errstate(all="ignore"):
        values = eval_lame(f, np.array(svals)).tolist()
    if bad := [s for s, E in zip(svals, values) if not math.isfinite(E)]:
        raise RangeViolation(f"E_{args.degree}^{args.p}({bad[0]}) leaves float64 range")
    rows = [{"s": s, "E": E} for s, E in zip(svals, values)]
    write_table(args, "semiaxes subcommand degree p s", rows,
                units="dimensionless (leading coefficient unity)",
                extra={"separation_constant": f.separation_constant,
                       "class": f.cls.tag})


def cmd_harmonic(args):
    sys = _system(args)
    idx = harmonics.HarmonicIndex(args.degree, args.p)
    rows = []
    for x, y, z in _points(args.points):
        pt = coords.cart_to_ell(sys, x, y, z)
        row = {"x": x, "y": y, "z": z,
               "interior": harmonics.interior_solid(sys, idx, pt)}
        try:
            row["exterior"] = harmonics.exterior_solid(sys, idx, pt)
        except SingularLowerLimit:      # on the focal disc, where lambda = k
            row["exterior"] = float("nan")
        rows.append(row)
    write_table(args, "semiaxes subcommand degree p points", rows,
                units="harmonics dimensionless in Angstrom^n scaling")


def cmd_gamma(args):
    sys = _system(args)
    table = harmonics.build_normalization_table(sys, args.order)
    rows = [{"n": n, "p": p, "gamma": table.gamma[(n, p)],
             "error_estimate": table.error_estimates[(n, p)]}
            for (n, p) in sorted(table.gamma)]
    write_table(args, "semiaxes subcommand order", rows,
                units="Angstrom^(2n+1) scaling per index")


def cmd_coulomb(args):
    sys = _system(args)
    source = _parse_triple(args.source, "--source")
    field = _parse_triple(args.field, "--field")
    exp = harmonics.coulomb_expand(sys, source, field, args.order)
    exact = 1.0 / float(np.linalg.norm(np.subtract(field, source)))
    rows = []
    for n in range(args.order + 1):
        degree_diag = [exp.diagnostics[(n, p)] for p in range(1, 2 * n + 2)]
        rows.append({
            "n": n,
            "partial_sum": exp.partial_sums[n],
            "abs_error": abs(exp.partial_sums[n] - exact),
            "max_absE": max(d["absE"] for d in degree_diag),
            "max_absF": max(d["absF"] for d in degree_diag),
            "min_gamma": min(d["gamma"] for d in degree_diag),
            "cancellation_flag": int(n in exp.cancellation_degrees),
        })
    write_table(args, "semiaxes subcommand source field order", rows,
                units="potential in 1/Angstrom (unit charges)",
                extra={"exact": exact,
                       "cancellation_degrees": exp.cancellation_degrees})


def cmd_solvation(args):
    *_, report = _semi_analytic(args)
    rows = [{"N": report.N, "energy_kcal_per_mol": report.energy_kcal,
             "energy_e2_per_angstrom": report.energy_gaussian}]
    write_table(args, "semiaxes subcommand charges eps1 eps2 order", rows,
                units="kcal/mol and e^2/Angstrom")


def cmd_born_limit(args):
    deltas = [float(v) for v in args.deltas.split(",")]
    diel = solvation.DielectricModel(args.eps1, args.eps2)
    exact = solvation.born_energy(1.0, 1.0, diel)
    rows = []
    for d in deltas:
        sys = coords.new_system(1.0 + d, 1.0 + d / 5.0, 1.0 + d / 10.0)
        report = solvation.solvation_energy(
            sys, [solvation.PointCharge(0, 0, 0, 1.0)], diel, N=args.order)
        rows.append({"delta": d, "energy_kcal_per_mol": report.energy_kcal,
                     "born_kcal_per_mol": exact,
                     "deviation": abs(report.energy_kcal - exact)})
    write_table(args, "subcommand deltas eps1 eps2 order", rows, units="kcal/mol")


def cmd_bem_validate(args):
    sys, charges, diel, semi = _semi_analytic(args)
    refinements = [int(v) for v in args.refinements.split(",")]
    study = bem.convergence_study(
        lambda r: bem.mesh_ellipsoid(sys, r), charges, diel, refinements,
        reference=semi.energy_kcal)
    rows = [{"refinement": r, "panels": n, "energy_kcal_per_mol": e,
             "deviation": d}
            for r, n, e, d in zip(refinements, study.panel_counts,
                                  study.energies, study.deviations)]
    write_table(args, "semiaxes subcommand charges eps1 eps2 order refinements", rows,
                units="kcal/mol",
                extra={"semi_analytic_kcal": semi.energy_kcal,
                       "fitted_slope": study.fitted_slope,
                       "richardson_limit_kcal": study.richardson_limit})


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _add_common(parser, suppress):
    """Common flags, attachable before or after the subcommand.

    The copies attached to subparsers use SUPPRESS defaults so they do not
    clobber values given before the subcommand name.
    """
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--semiaxes", default=d("2,1.5,1"),
                        help="a,b,c semiaxes in Angstrom (default 2,1.5,1)")
    parser.add_argument("--order", type=int, default=d(12),
                        help="truncation degree N (default 12)")
    parser.add_argument("--eps1", type=float, default=d(4.0),
                        help="interior permittivity (default 4)")
    parser.add_argument("--eps2", type=float, default=d(80.0),
                        help="exterior permittivity (default 80)")
    parser.add_argument("--charges", default=d(None),
                        help="charge file: 'x y z q' per line, # comments")
    parser.add_argument("--format", choices=("csv", "json"), default=d("csv"),
                        help="output format (default csv)")
    parser.add_argument("--out", default=d(None),
                        help="output path (default stdout)")


def build_parser():
    ap = argparse.ArgumentParser(prog="ellharm", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        p = sub.add_parser(name, **kw)
        _add_common(p, suppress=True)
        p.set_defaults(subcommand=name)
        return p

    p = add_parser("transform", help="coordinate transform table")
    p.add_argument("--points", help="semicolon-separated x,y,z triples")
    p.add_argument("--brick", type=int,
                   help="generate an n^3-per-octant test brick (8*n^3 rows)")
    p.set_defaults(func=cmd_transform)

    p = add_parser("lame", help="first-kind function values")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--p", type=int, required=True, help="order 1..2n+1")
    p.add_argument("--s", required=True, help="comma-separated evaluation points")
    p.set_defaults(func=cmd_lame)

    p = add_parser("harmonic", help="solid harmonic values")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--points", required=True,
                   help="semicolon-separated x,y,z triples")
    p.set_defaults(func=cmd_harmonic)

    p = add_parser("gamma", help="normalization constants table")
    p.set_defaults(func=cmd_gamma)

    p = add_parser("coulomb", help="Coulomb-kernel expansion convergence")
    p.add_argument("--source", required=True, help="x,y,z of the source")
    p.add_argument("--field", required=True, help="x,y,z of the field point")
    p.set_defaults(func=cmd_coulomb)

    p = add_parser("solvation", help="semi-analytic solvation energy")
    p.set_defaults(func=cmd_solvation)

    p = add_parser("born-limit", help="near-sphere Born-limit sweep")
    p.add_argument("--deltas", default="1,0.3,0.1,0.03,0.01,0.003,0.001")
    p.set_defaults(func=cmd_born_limit)

    p = add_parser("bem-validate", help="BEM refinement cross-check")
    p.add_argument("--refinements", default="1,2,3,4",
                   help="comma-separated icosphere refinement levels")
    p.set_defaults(func=cmd_bem_validate)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a message; normalize bad-usage exits to 2
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        args.func(args)
        return EXIT_OK
    except (ValidationError, ValueError, NumericalError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, _sys.stderr)
        _sys.stderr.write("\n")
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
