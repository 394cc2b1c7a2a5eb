import itertools

import pytest

from starlift import FormalSeriesTensor, load_lie_algebra
from starlift.cohochschild import _compositions_positive, monomials
from starlift.core import slot_degrees

try:
    from importlib.resources import files
except ImportError:
    files = None


def data_path(name: str) -> str:
    return str(files("starlift").joinpath("data", name + ".json"))


def rational_rows(alg):
    """rows[i][j] = ((k, c_ijk), ...) over the nonzero structure constants,
    read from alg.c in index order: the rational bracket table of the
    reference loops, independent of LieAlgebraSpec.integer_rows. Kept in
    alg.memo, so that no lookup compares structure constants."""
    key = ("rational_rows",)
    if key not in alg.memo:
        rows = {}
        for i, plane in enumerate(alg.c):
            row = {j: ent for j, col in enumerate(plane)
                   if (ent := tuple((k, v) for k, v in enumerate(col) if v))}
            if row:
                rows[i] = row
        alg.memo[key] = rows
    return alg.memo[key]


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
