"""The package registers its submodules lazily: a CLI process compiles and
runs only the modules its command uses, and the public API is unchanged."""
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import starlift

from conftest import data_path

SUBMODULES = ("_rat", "cohochschild", "core", "duality", "envelope", "errors", "lifts",
              "linsolve", "quasitriangular", "star")
BASE = {"_rat", "cli", "core", "errors", "linsolve"}
LIFT = BASE | {"cohochschild", "lifts", "star"}
QT = BASE | {"envelope", "quasitriangular"}

# The package's public names before its submodules were registered lazily.
PUBLIC = [
    "FormalSeriesTensor", "LieAlgebraSpec", "LinearForm", "PBWElement", "PBWTensorSquare",
    "QTStructure", "RMatrix", "alt_project", "c_s_basis", "c_s_graded_dims", "c_s_map",
    "center", "check_inner_derivation", "cocycle_defect", "cohomology_dimension",
    "compare_images", "convolution_bracket", "copoisson_delta", "coproduct_insert", "cyb",
    "derivation_D", "dual_bracket", "form_pair", "g_action", "gauge_phi", "gauge_rho",
    "invariants_s_dual", "is_invariant", "is_poisson_trace", "lift", "lift_associator",
    "lift_twist", "load_lie_algebra", "multiply", "negate", "pbw_commutator", "pbw_product",
    "pentagon_defect", "poisson_bracket", "poisson_traces", "qt_validate", "rho_product",
    "star", "star_conjugate", "sts_alpha", "sts_theta", "theta", "twisted_coproduct",
    "__version__",
]

# Runs one command in a fresh process and prints the starlift modules whose
# code ran: a registered module that was never touched is still a _LazyModule.
EXECUTED = (
    "import contextlib, json, os, sys, types\n"
    "from starlift.cli import main\n"
    "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(name.partition('.')[2] for name, m in sys.modules.items()\n"
    "                  if name.startswith('starlift.') and type(m) is types.ModuleType)]))\n"
)


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(starlift.__file__).parent.parent))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("argv, executed", [
    (("validate", "sl2"), BASE),
    (("validate", "sl2-qt"), QT),
    (("lift", "sl2", "--degree", "4"), LIFT),
    (("cohomology", "sl2", "--degree", "3"), BASE | {"cohochschild"}),
    (("envelope", "sl2", "--maxdeg", "3"), BASE | {"envelope"}),
    (("theta", "sl2", "--maxdeg", "3"), LIFT | {"duality", "envelope"}),
    (("qt", "sl2-qt", "--maxdeg", "3"), QT),
], ids=["validate", "validate-qt", "lift", "cohomology", "envelope", "theta", "qt"])
def test_command_executes_only_its_modules(argv, executed):
    proc = _python("-c", EXECUTED, argv[0], data_path(argv[1]), *argv[2:], "--emit",
                   "certificates")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, sorted(executed)]


def test_cli_import_registers_every_submodule():
    """perfbench's traced job reads every layer module from sys.modules right
    after importing the CLI."""
    code = ("import json, sys, types, starlift.cli\n"
            "print(json.dumps({name.partition('.')[2]: type(m) is types.ModuleType\n"
            "                  for name, m in sys.modules.items() if name.startswith('starlift.')},\n"
            "                 sort_keys=True))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    executed = {"_rat", "cli", "core", "errors"}
    assert json.loads(proc.stdout) == {name: name in executed for name in (*SUBMODULES, "cli")}


def test_module_run_is_quiet():
    """cli is not registered ahead of ``python -m``, which would warn."""
    proc = _python("-W", "error", "-m", "starlift.cli", "validate", data_path("sl2"),
                   "--emit", "certificates")
    assert (proc.returncode, proc.stderr) == (0, "")


def test_public_names():
    assert starlift.__all__ == PUBLIC
    for name in PUBLIC:
        value = getattr(starlift, name)
        if name != "__version__":
            assert value is getattr(sys.modules[value.__module__], name)
    assert set(PUBLIC) <= set(dir(starlift))
    with pytest.raises(AttributeError):
        starlift.no_such_name


def test_star_is_the_function():
    from starlift import star
    from starlift.star import star as star_function

    assert starlift.star is star is star_function
    assert isinstance(star, types.FunctionType)
    assert sys.modules["starlift.star"].star is star


def test_submodules_resolve():
    from starlift import core, duality, envelope

    assert core is sys.modules["starlift.core"]
    assert starlift.envelope is envelope
    assert duality.LinearForm is envelope.LinearForm is starlift.LinearForm
