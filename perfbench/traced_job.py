"""Run one starlift CLI job in this process, traced per layer or profiled.

    python perfbench/traced_job.py trace|profile OUT.json CLI-ARGS...

The report goes to stdout exactly as ``python -m starlift.cli CLI-ARGS``
prints it, and the exit status is the CLI's. The measurements go to
OUT.json:

- ``trace`` wraps the public entry points of each layer module (``LAYERS``)
  and records, per wrapped function, its calls, its self time (span time
  minus the time its child spans cover) and the counters in ``_COUNTERS``,
  plus one record per ``solve_coboundary`` call;
- ``profile`` runs the job under the stdlib ``cProfile`` and reports the
  operations and the share of self time spent in ``fractions`` and
  ``math.gcd``.

Neither mode changes the program: wrappers are installed from outside by
rebinding names in the loaded ``starlift`` modules.
"""
from __future__ import annotations

import cProfile
import json
import pstats
import sys
from time import perf_counter_ns

import starlift.cli
from starlift import envelope

LAYERS = {
    "core": ("poisson_bracket", "coproduct_insert", "g_action", "load_lie_algebra"),
    "star": ("star", "star_conjugate"),
    "cohochschild": ("_d_raw", "invariant_basis", "cohomology_dimension", "solve_coboundary"),
    "linsolve": ("echelonize",),
    "lifts": ("lift_associator", "lift_twist", "pentagon_defect", "cocycle_defect", "gauge_rho"),
    "envelope": ("_straighten", "pbw_product", "center", "invariants_s_dual"),
    "duality": ("rho_product", "twisted_coproduct", "theta", "convolution_bracket",
                "poisson_traces", "is_poisson_trace"),
    "quasitriangular": ("c_s_basis", "sts_alpha", "compare_images", "qt_validate"),
    "cli": ("_print_report",),
}


def _count_bracket(stats, args, kwargs, result, span):
    f, g = args
    stats["pairs"] += len(f.coeffs) * len(g.coeffs)
    stats["terms_out"] += len(result.coeffs)
    stats["zero_calls"] += not result.coeffs


def _count_insert(stats, args, kwargs, result, span):
    stats["terms_out"] += len(result.coeffs)


def _count_echelon(stats, args, kwargs, result, span):
    rows = args[0]
    stats["rows_in"] += len(rows)
    stats["nnz_in"] += sum(len(row) for row in rows)
    stats["rank_out"] += len(result)


def _count_solve(stats, args, kwargs, result, span):
    """One record per call: the per-degree log of the lifts."""
    c = args[0]
    entry = {
        "k": c.k,
        "degree": c.degree,
        "invariant_only": bool(kwargs.get("invariant_only", args[1] if len(args) > 1 else False)),
        "rhs_terms": len(c.value.coeffs),
        "sol_terms": len(result.value.coeffs),
        "seconds": span / 1e9,
    }
    stats["rhs_terms"] += entry["rhs_terms"]
    stats["sol_terms"] += entry["sol_terms"]
    stats.setdefault("log", []).append(entry)


_COUNTERS = {
    "core.poisson_bracket": (_count_bracket, ("pairs", "terms_out", "zero_calls")),
    "core.coproduct_insert": (_count_insert, ("terms_out",)),
    "cohochschild.solve_coboundary": (_count_solve, ("rhs_terms", "sol_terms")),
    "linsolve.echelonize": (_count_echelon, ("rows_in", "nnz_in", "rank_out")),
}


class Tracer:
    """Aggregated spans and counters of the wrapped layer functions."""

    def __init__(self):
        self.stats = {}
        self.top_ns = 0
        self._open = []  # per open span: time covered by its finished children

    def wrap(self, name, fn):
        stats = self.stats[name] = {"calls": 0, "self_ns": 0}
        count, keys = _COUNTERS.get(name, (None, ()))
        stats.update(dict.fromkeys(keys, 0))
        open_spans = self._open
        materialize = name == "linsolve.echelonize"  # callers may pass a one-shot iterable

        def wrapper(*args, **kwargs):
            if materialize:
                args = (list(args[0]),) + args[1:]
            open_spans.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter_ns() - start
                children = open_spans.pop()
                stats["calls"] += 1
                stats["self_ns"] += span - children
                if open_spans:
                    open_spans[-1] += span
                else:
                    self.top_ns += span
            if count is not None:
                count(stats, args, kwargs, result, span)
            return result

        return wrapper

    def install(self):
        """Rebind every wrapped function wherever a loaded starlift module holds it.

        ``from .core import poisson_bracket`` copies the binding into the
        importing module, so rebinding only the defining module would miss
        those call sites. Recursive calls and imports done inside function
        bodies read the defining module's global at call time and so see the
        wrapper too.
        """
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "starlift" or name.startswith("starlift."))]
        for mod_name, funcs in LAYERS.items():
            home = sys.modules[f"starlift.{mod_name}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self.wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def _rat_profile(profile: cProfile.Profile) -> dict:
    """Calls into, and share of self time spent in, fractions and math.gcd."""
    ops = 0
    rat_s = 0.0
    total_s = 0.0
    for (filename, _, func), (_, calls, self_s, _, _) in pstats.Stats(profile).stats.items():
        total_s += self_s
        if filename.endswith("fractions.py") or func == "<built-in method math.gcd>":
            ops += calls
            rat_s += self_s
    return {"ops": ops, "self_s": rat_s, "total_self_s": total_s}


def main(argv) -> int:
    mode, out_path, cli_args = argv[0], argv[1], argv[2:]
    record = {}
    if mode == "profile":
        profile = cProfile.Profile()
        profile.enable()
        try:
            status = starlift.cli.main(cli_args)
        finally:
            profile.disable()
        record["rat"] = _rat_profile(profile)
    elif mode == "trace":
        tracer = Tracer()
        tracer.install()
        memo_before = len(envelope._STRAIGHTEN_MEMO)
        status = starlift.cli.main(cli_args)
        record.update(
            layers=tracer.stats,
            top_s=tracer.top_ns / 1e9,
            straighten_memo_growth=len(envelope._STRAIGHTEN_MEMO) - memo_before,
        )
    else:
        raise SystemExit(f"unknown mode {mode!r}; use trace or profile")
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
