"""starlift: exact lifts of coboundary Lie bialgebra structures.

Functional pentagon and twist-cocycle equations solved degree by degree
in the BCH star group, co-Hochschild cohomology, PBW envelopes, trace
transport into U(g*), and quasitriangular subalgebra machinery. All
arithmetic is exact over Q.

Every submodule but ``cli`` is registered in ``sys.modules`` lazily: its
code is compiled and run on its first attribute access, so a process runs
only the modules it uses. The public names resolve on first access too.
"""
import importlib.machinery
import importlib.util
import sys

__version__ = "0.1.0"

# The public names, by defining module.
_PUBLIC = {
    "cohochschild": ("cohomology_dimension",),
    "core": ("FormalSeriesTensor", "LieAlgebraSpec", "RMatrix", "alt_project",
             "coproduct_insert", "cyb", "g_action", "is_invariant", "load_lie_algebra",
             "multiply", "poisson_bracket"),
    "duality": ("convolution_bracket", "form_pair", "is_poisson_trace", "poisson_traces",
                "rho_product", "theta", "twisted_coproduct"),
    "envelope": ("LinearForm", "PBWElement", "PBWTensorSquare", "center", "copoisson_delta",
                 "derivation_D", "dual_bracket", "invariants_s_dual", "pbw_commutator",
                 "pbw_product"),
    "lifts": ("cocycle_defect", "gauge_phi", "gauge_rho", "lift", "lift_associator",
              "lift_twist", "pentagon_defect"),
    "quasitriangular": ("QTStructure", "c_s_basis", "c_s_graded_dims", "c_s_map",
                        "check_inner_derivation", "compare_images", "qt_validate",
                        "sts_alpha", "sts_theta"),
    "star": ("negate", "star", "star_conjugate"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
# cli stays out: ``python -m starlift.cli`` would find it registered and warn.
_SUBMODULES = ("_rat", "errors", "linsolve", *_PUBLIC)

__all__ = sorted(_HOME) + ["__version__"]

for _name in _SUBMODULES:
    _spec = importlib.machinery.PathFinder.find_spec(f"{__name__}.{_name}", __path__)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    # A public name wins over a submodule of the same name: starlift.star is the function.
    if name in _HOME:
        value = getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    elif name in _SUBMODULES:
        value = sys.modules[f"{__name__}.{name}"]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
