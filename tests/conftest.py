import pytest

from starlift import load_lie_algebra

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
