"""Command-line front door.

Each subcommand loads and validates an input algebra, runs one slice of the
pipeline, and prints a deterministic report (JSON by default) whose
top-level ``certificates`` object holds exact booleans. Exit status is 0
iff every certificate in the report is true, 1 on a failed certificate or
a structured computation error, 2 on unreadable or malformed input.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from math import comb

from . import cohochschild, duality, envelope, lifts, quasitriangular
from ._rat import QQ, rat, rat_str
from .core import (
    FormalSeriesTensor,
    alt_project,
    cyb,
    is_invariant,
    load_lie_algebra,
    poisson_bracket,
)
from .errors import BadDegree, CYBViolation, ParseError, StarliftError, TNotInvariant

DEGREE_CAP = 8


def _jsonable(obj):
    """Tuples as lists and rationals as "p/q": a sparse vector x is reported
    as sorted(x.coeffs.items())."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return rat_str(obj)


def _print_report(report: dict, output: str) -> None:
    report = _jsonable(report)
    if output == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    certs = report.get("certificates", {})
    for name in sorted(certs):
        print(f"certificate {name}: {'PASS' if certs[name] else 'FAIL'}")
    for key in sorted(report.keys() - {"certificates"}):
        val = report[key]
        if (val is None or isinstance(val, (str, int))
                or isinstance(val, list) and all(isinstance(v, int) for v in val)):
            print(f"{key}: {val}")


def _require_coboundary(rmat):
    if rmat is None:
        raise ParseError("input provides no r matrix")
    if rmat.kind != "antisymmetric-coboundary":
        raise StarliftError(
            "this command needs an antisymmetric coboundary r; "
            f"input is tagged {rmat.kind!r}"
        )
    return rmat


def cmd_validate(alg, rmat, args) -> dict:
    certs = {"jacobi": True}
    report = {
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "certificates": certs,
    }
    if rmat is None:
        return report
    if rmat.kind == "antisymmetric-coboundary":
        certs["antisymmetric"] = True
        Z = cyb(rmat)
        certs["z_in_wedge3"] = alt_project(Z) == Z
        certs["z_invariant"] = is_invariant(Z)
        report["z_terms"] = sorted(Z.coeffs.items())
    else:
        try:
            qt = quasitriangular.qt_validate(alg, rmat)
        except CYBViolation:
            certs["cyb_zero"] = False
            return report
        except TNotInvariant:
            certs["cyb_zero"] = True
            certs["t_invariant"] = False
            return report
        certs["cyb_zero"] = True
        certs["t_invariant"] = True
        report["nondegenerate"] = qt.nondegenerate
    return report


def cmd_lift(alg, rmat, args) -> dict:
    rmat = _require_coboundary(rmat)
    N = args.degree
    res = lifts.lift(rmat, N)
    phi, rho, Z = res["phi"], res["rho"], res["Z"]
    pent = lifts.pentagon_defect(phi)
    coc = lifts.cocycle_defect(rho, phi)
    certs = {
        "defect_zero": pent.is_zero() and coc.is_zero(),
        "invariant": is_invariant(phi),
        "cocycle": coc.is_zero(),
    }
    report = {
        "degree": N,
        "certificates": certs,
        "z_terms": sorted(Z.coeffs.items()),
        "alt_phi_to_z_ratio": None if Z.is_zero() else _ratio(alt_project(phi), alt_project(Z)),
    }
    if args.emit == "full":
        report["phi_terms"] = sorted(phi.coeffs.items())
        report["rho_terms"] = sorted(rho.coeffs.items())
    return report


def _ratio(num: FormalSeriesTensor, den: FormalSeriesTensor):
    """num = q * den for a single rational q, else None."""
    if den.is_zero():
        return None
    key, base = next(iter(sorted(den.coeffs.items())))
    q = num.coeffs.get(key, QQ(0)) / base
    return q if num == den.scale(q) else None


def cmd_cohomology(alg, rmat, args) -> dict:
    table = {}
    inv_table = {}
    ok = True
    top = min(args.degree, 6)
    for k in (1, 2, 3):
        for N in range(k, top + 1):
            dim = cohochschild.cohomology_dimension(alg, k, N)
            table[f"k{k}_N{N}"] = dim
            inv_table[f"k{k}_N{N}"] = cohochschild.cohomology_dimension(
                alg, k, N, invariant_only=True)
            expected = comb(alg.dim, k) if N == k else 0
            ok = ok and dim == expected
    return {
        "certificates": {"concentrated": ok},
        "dimensions": table,
        "invariant_dimensions": inv_table,
    }


def cmd_envelope(alg, rmat, args) -> dict:
    maxdeg = args.maxdeg
    cen = envelope.center(alg, maxdeg)
    inv = envelope.invariants_s_dual(alg, maxdeg)
    inv_dims = [0] * (maxdeg + 1)
    for l in inv:
        inv_dims[l.order] += 1
    report = {
        "center_dim": len(cen),
        "center_filtrations": sorted(x.filtration for x in cen),
        "invariant_dims": inv_dims,
        "certificates": {},
    }
    if rmat is not None and rmat.kind == "antisymmetric-coboundary":
        dual = envelope.dual_bracket(rmat)
        report["dual_structure_constants"] = [
            [i, j, [[k, v] for (_, _, k), v in terms]]
            for (i, j), terms in itertools.groupby(dual.brackets, lambda item: item[0][:2])
            if i < j
        ]
        # invariants Poisson-commute in S(g*) under the dual bracket
        series = [FormalSeriesTensor(dual, 1, 2 * maxdeg, {(v,): n for v, n in items}, D)
                  for D, items in (f.numerators for f in inv)]
        report["certificates"]["commutative"] = all(
            poisson_bracket(f, g).is_zero() for f, g in itertools.combinations(series, 2))
    return report


def _fixed_gauges(alg, N):
    """Two deterministic non-trivial gauge parameters."""
    out = []
    for salt in (1, 2):
        items = {}
        for d in range(2, N + 1):
            for pos, vec in enumerate(cohochschild.monomials(alg.dim, d)):
                if (pos + salt * d) % 3 == 0:
                    items[(vec,)] = QQ(1 + (pos + salt) % 4, 1 + (pos % 2))
        out.append(FormalSeriesTensor.make(alg, 1, N, items))
    return out


def cmd_theta(alg, rmat, args) -> dict:
    rmat = _require_coboundary(rmat)
    maxdeg = args.maxdeg
    # Theta reads rho only through degree max(--maxdeg, 2) (see duality.theta),
    # and lift step M reads only the truncation at M + 1, so lifting past
    # max(--maxdeg, 3) changes no report byte; below 3 the flags set the lift
    # degree as before. `lift --degree` certifies the deeper steps.
    N = min(max(args.degree, maxdeg), max(maxdeg, 3))
    rho = lifts.lift(rmat, N)["rho"]
    traces = duality.poisson_traces(alg, maxdeg)
    images = [duality.theta(f, rho) for f in traces]

    filtered = all(
        th.filtration == f.order and th.top_symbol() == f.homogeneous_part(f.order).coeffs
        for f, th in zip(traces, images)
    )
    commutative = all(
        envelope.pbw_commutator(a, b).is_zero() for a, b in itertools.combinations(images, 2)
    )
    gauge_ok = True
    for lam in _fixed_gauges(alg, N):
        rho2 = lifts.gauge_rho(lam, rho)
        if [duality.theta(f, rho2) for f in traces] != images:
            gauge_ok = False
    report = {
        "certificates": {
            "filtered": filtered,
            "commutative": commutative,
            "gauge_independent": gauge_ok,
        },
        "trace_orders": [f.order for f in traces],
    }
    if args.emit == "full":
        report["theta_images"] = [sorted(x.coeffs.items()) for x in images]
    return report


def cmd_qt(alg, rmat, args) -> dict:
    if rmat is None:
        raise ParseError("input provides no r matrix")
    qt = quasitriangular.qt_validate(alg, rmat)
    s = rat(args.s)
    maxdeg = args.maxdeg
    dims = quasitriangular.c_s_graded_dims(s, maxdeg, qt)
    basis = quasitriangular.c_s_basis(s, maxdeg, qt)
    commutative = all(
        envelope.pbw_commutator(a, b).is_zero() for a, b in itertools.combinations(basis, 2)
    )
    closed = all(
        quasitriangular.c_s_map(p, qt.g, s).is_zero()
        for a, b in itertools.combinations_with_replacement(basis, 2)
        for p in (envelope.pbw_product(a, b),)
        if p.filtration <= maxdeg
    )
    inner = quasitriangular.check_inner_derivation(qt)
    certs = {
        "inner_derivation": inner["passed"],
        "commutative": commutative,
        "closed": closed,
    }
    report = {
        "s": s,
        "certificates": certs,
        "c_s_graded_dims": list(dims),
        "nondegenerate": qt.nondegenerate,
        "mu_rprime": inner["mu_rprime"],
        "alpha_rank": list(quasitriangular.alpha_matrix_rank(qt, maxdeg)),
        "image_comparison": quasitriangular.compare_images(qt, maxdeg),
    }
    if qt.nondegenerate:
        transported = []
        in_c1 = True
        for z in envelope.center(qt.g, maxdeg):
            if z.filtration == 0:
                continue
            y = quasitriangular.sts_theta(z, qt)
            transported.append(sorted(y.coeffs.items()))
            if not quasitriangular.c_s_map(y, qt.g, QQ(1)).is_zero():
                in_c1 = False
        certs["theta_in_C1"] = in_c1
        if args.emit == "full":
            report["theta_images"] = transported
    return report


COMMANDS = {
    "validate": cmd_validate,
    "lift": cmd_lift,
    "cohomology": cmd_cohomology,
    "envelope": cmd_envelope,
    "theta": cmd_theta,
    "qt": cmd_qt,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starlift",
        description="Exact lifts of coboundary Lie bialgebra structures and "
                    "their enveloping-algebra transport.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="path to a JSON algebra spec")
    parser.add_argument("--degree", type=int, default=5,
                        help="series truncation degree (default 5, capped at "
                             f"{DEGREE_CAP} without --allow-large; theta lifts "
                             "to at most max(--maxdeg, 3))")
    parser.add_argument("--maxdeg", type=int, default=4,
                        help="filtration bound for envelope-side computations "
                             "(theta lifts to at least it, so the --degree cap applies)")
    parser.add_argument("--s", default="1", help="the scalar s of the C_s family (qt only)")
    parser.add_argument("--output", choices=("json", "text"), default="json")
    parser.add_argument("--emit", choices=("full", "certificates"), default="full",
                        help="include coefficient dumps or certificates only")
    parser.add_argument("--allow-large", action="store_true",
                        help="permit degree beyond the default cap")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as "-3/4" for an unknown option, so bind it to --s here
    while "--s" in argv[:-1]:
        i = argv.index("--s")
        argv[i:i + 2] = ["--s=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    try:
        least = {"lift": 3, "cohomology": 1}.get(args.command, args.degree)
        if args.degree < least:
            raise BadDegree(f"{args.command} needs --degree >= {least}")
        if args.degree > DEGREE_CAP and not args.allow_large:
            raise BadDegree(f"--degree > {DEGREE_CAP} needs --allow-large")
        if args.command == "theta" and args.maxdeg > DEGREE_CAP and not args.allow_large:
            raise BadDegree(f"theta --maxdeg > {DEGREE_CAP} needs --allow-large")
        if args.maxdeg < 0:
            raise BadDegree("--maxdeg must be >= 0")
        alg, rmat = load_lie_algebra(args.input)
        try:
            rat(args.s)
        except ValueError:
            raise ParseError(f"malformed --s value {args.s!r}") from None
        report = COMMANDS[args.command](alg, rmat, args)
    except StarliftError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2 if isinstance(exc, ParseError) else 1
    _print_report(report, args.output)
    return 0 if all(report.get("certificates", {}).values()) else 1


def console_main() -> None:
    """Run main() as a process: once the report is flushed, os._exit skips an
    interpreter teardown that only frees what the OS reclaims. A failed flush,
    or a profiler or tracer that writes its results at exit, takes sys.exit."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError):  # no stdout (fd 1 closed at start) or a broken one
        sys.exit(code)
    tools = getattr(sys, "monitoring", None)  # cProfile's hook from Python 3.12 on
    if sys.getprofile() or sys.gettrace() or tools and any(map(tools.get_tool, range(6))):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
