import itertools

import pytest

from starlift import FormalSeriesTensor, LieAlgebraSpec, load_lie_algebra
from starlift._rat import QQ
from starlift.cohochschild import _compositions_positive, monomials
from starlift.core import slot_degrees

try:
    from importlib.resources import files
except ImportError:
    files = None


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
