import itertools
import os
import subprocess
import sys
import tempfile
import time
from math import lcm
from pathlib import Path

import pytest

import starlift
from starlift import FormalSeriesTensor, LieAlgebraSpec, load_lie_algebra
from starlift._rat import QQ
from starlift.cohochschild import _compositions_positive, monomials
from starlift.core import slot_degrees

try:
    from importlib.resources import files
except ImportError:
    files = None


# The co-Hochschild, lift, envelope, qt, duality, sparse-vector, core and star
# unit tests themselves (the record checks among them), the all-generator kernel
# oracles, the dense ad-invariance oracle, the Fraction oracles of the tensor
# and dual-side bracket kernels, the differential oracle and the linsolve
# tests with their sympy and Fraction-elimination oracles, with assert
# statements stripped from the package: test_cli.py's
# test_unit_tests_under_python_O waits for this run and asserts that it passed.
PYTHON_O_TEST = "test_unit_tests_under_python_O"
PYTHON_O_ARGV = ("-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "tests/test_cohochschild.py", "tests/test_lifts.py",
                 "tests/test_envelope.py", "tests/test_qt.py", "tests/test_duality.py",
                 "tests/test_sparse_vec.py", "tests/test_core.py",
                 "tests/test_star.py", "tests/test_actor_oracle.py",
                 "tests/test_validation.py", "tests/test_kernel_oracle.py",
                 "tests/test_dual_kernel_oracle.py",
                 "tests/test_differential_oracle.py", "tests/test_linsolve.py",
                 "tests/test_linsolve_oracle.py")
_PYTHON_O_RUN = pytest.StashKey[dict]()


@pytest.hookimpl(trylast=True)  # after -k and -m have deselected
def pytest_collection_modifyitems(config, items):
    """When the python -O test is collected, start its run now and move the
    test to the end of the session, so that the run goes on beside the rest
    of the suite instead of holding it up."""
    if any(item.name == PYTHON_O_TEST for item in items):
        items.sort(key=lambda item: item.name == PYTHON_O_TEST)
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(Path(starlift.__file__).parent.parent))
        stdout = tempfile.TemporaryFile("w+")
        proc = subprocess.Popen([sys.executable, *PYTHON_O_ARGV], cwd=root, env=env,
                                stdout=stdout, stderr=subprocess.DEVNULL)
        config.stash[_PYTHON_O_RUN] = dict(proc=proc, stdout=stdout, start=time.monotonic())


@pytest.fixture
def python_O_run(request) -> dict:
    """The python -O run: {"proc": its Popen, "stdout": the file its stdout
    goes to, "start": the time.monotonic() it started at}."""
    return request.config.stash[_PYTHON_O_RUN]


def pytest_sessionfinish(session):
    """A run that no test waited for (an interrupted session) is stopped."""
    run = session.config.stash.get(_PYTHON_O_RUN, None)
    if run is not None:
        if run["proc"].poll() is None:
            run["proc"].kill()
            run["proc"].wait()
        run["stdout"].close()


def data_path(name: str) -> str:
    return str(files("starlift").joinpath("data", name + ".json"))


def dense_c(alg):
    """The structure constants of alg as a dim^3 cube, c[i][j][k] the
    coefficient of x_k in [x_i, x_j]: the dense view of the reference loops.
    Kept in alg.memo, so that no lookup compares structure constants."""
    key = ("dense_c",)
    if key not in alg.memo:
        d = alg.dim
        c = [[[QQ(0)] * d for _ in range(d)] for _ in range(d)]
        for (i, j, k), v in alg.brackets:
            c[i][j][k] = v
        alg.memo[key] = tuple(tuple(map(tuple, plane)) for plane in c)
    return alg.memo[key]


def dense_r(entries, d):
    """The d x d matrix whose nonzero entries are the ((i, j), v) items of
    entries (an RMatrix's entries or a QTStructure's t): the dense view of
    the reference loops."""
    m = [[QQ(0)] * d for _ in range(d)]
    for (i, j), v in entries:
        m[i][j] = v
    return tuple(map(tuple, m))


def sparse_r(rows):
    """The ((i, j), v) items over the nonzero entries of the square matrix
    rows, in index order: the entries an RMatrix stores."""
    return tuple(((i, j), v) for i, row in enumerate(rows) for j, v in enumerate(row) if v)


def rational_rows(alg):
    """rows[i][j] = ((k, c_ijk), ...) over the nonzero structure constants,
    read from alg.brackets in index order: the rational bracket table of the
    reference loops, independent of LieAlgebraSpec.integer_rows. Kept in
    alg.memo, so that no lookup compares structure constants."""
    key = ("rational_rows",)
    if key not in alg.memo:
        rows = {}
        for (i, j, k), v in alg.brackets:
            row = rows.setdefault(i, {})
            row[j] = row.get(j, ()) + ((k, v),)
        alg.memo[key] = rows
    return alg.memo[key]


def as_pair(col):
    """The column {key: rational or int} in linsolve's form (D, [(key, n), ...]):
    D the lcm of the denominators, n = D * value, zeros dropped."""
    D = lcm(*(v.denominator for v in col.values()))
    return D, [(key, v.numerator * (D // v.denominator)) for key, v in col.items() if v]


def from_pair(answer):
    """A (D, nums) answer of kernel_of, preimage, invariant_kernel or
    coadjoint_action, nums a dict or (key, n) pairs, as {key: QQ(n, D)}:
    the rational view its tests compare; None (no preimage) stays None."""
    if answer is None:
        return None
    D, nums = answer
    return {key: QQ(n, D) for key, n in dict(nums).items()}


def cleared(row):
    """The row {column: rational or int} times the lcm of its denominators,
    as ints: the integer row echelonize takes."""
    return dict(as_pair(row)[1])


def from_cube(d, names, c):
    """The LieAlgebraSpec on names whose stored brackets are the nonzero
    entries of the cube c, unvalidated."""
    return LieAlgebraSpec(d, tuple(names), tuple(
        ((i, j, k), v) for i, plane in enumerate(c) for j, row in enumerate(plane)
        for k, v in enumerate(row) if v))


def slot_positive_keys(dim: int, k: int, N: int):
    """All k-slot monomial keys of total degree N with every slot degree >= 1,
    sorted."""
    return sorted(itertools.chain.from_iterable(
        itertools.product(*(monomials(dim, d) for d in degs))
        for degs in _compositions_positive(N, k)))


def multidegree_part(f, degs):
    """The part of the series f whose keys have slot degrees degs."""
    D, items = f.numerators
    return FormalSeriesTensor(f.alg, f.k, f.N, {key: n for key, n in items
                                                if slot_degrees(key) == tuple(degs)}, D)


@pytest.fixture(scope="session")
def abelian3():
    return load_lie_algebra(data_path("abelian3"))


@pytest.fixture(scope="session")
def nonabelian2():
    return load_lie_algebra(data_path("nonabelian2"))


@pytest.fixture(scope="session")
def sl2():
    return load_lie_algebra(data_path("sl2"))


@pytest.fixture(scope="session")
def sl2qt():
    return load_lie_algebra(data_path("sl2-qt"))
