import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import starlift
from starlift._rat import QQ
from starlift.linsolve import echelonize, kernel_of, preimage, rank_of

from conftest import as_pair, cleared

rationals = st.builds(QQ, st.integers(-9, 9), st.integers(1, 9))
matrices = st.lists(
    st.dictionaries(st.integers(0, 4), rationals, max_size=5),
    min_size=1,
    max_size=6,
)


def _cols(rows, ncols):
    """The column images of the matrix with the given rows: column j maps
    each row index to its entry in column j."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


# The row-form systems below, posed through the column-image entry points
# as (D, items) pairs.
def solve(rows, rhs, ncols):
    return preimage(dict(enumerate(map(as_pair, _cols(rows, ncols)))),
                    as_pair({i: b for i, b in enumerate(rhs) if b}))


def rank(rows, ncols=5):
    return rank_of(map(as_pair, _cols(rows, ncols)))


def kernel_basis(rows, ncols):
    return kernel_of(dict(enumerate(map(as_pair, _cols(rows, ncols)))))


def test_solve_unique():
    rows = [{0: QQ(2), 1: QQ(1)}, {0: QQ(1), 1: QQ(-1)}]
    sol = solve(rows, [QQ(3), QQ(0)], 2)
    assert sol == {0: QQ(1), 1: QQ(1)}


def test_solve_underdetermined_takes_some_solution():
    rows = [{0: QQ(1), 1: QQ(1)}]
    sol = solve(rows, [QQ(2)], 2)
    assert sol is not None
    assert sum(sol.get(j, QQ(0)) for j in range(2)) == QQ(2)


def test_solve_inconsistent_returns_none():
    rows = [{0: QQ(1)}, {0: QQ(1)}]
    assert solve(rows, [QQ(1), QQ(2)], 1) is None


def test_solve_zero_rhs():
    rows = [{0: QQ(1), 1: QQ(2)}]
    sol = solve(rows, [QQ(0)], 2)
    assert sol is not None
    assert sol.get(0, QQ(0)) + QQ(2) * sol.get(1, QQ(0)) == QQ(0)


def test_rank():
    rows = [
        {0: QQ(1), 1: QQ(2)},
        {0: QQ(2), 1: QQ(4)},
        {1: QQ(1)},
    ]
    assert rank(rows) == 2
    assert rank([]) == 0
    assert rank([{}]) == 0


def test_kernel_basis_dimension():
    # x + y + z = 0 has a 2-dimensional kernel
    rows = [{0: QQ(1), 1: QQ(1), 2: QQ(1)}]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec.get(j, QQ(0)) for j in range(3)) == QQ(0)


def test_kernel_of_full_rank_is_trivial():
    rows = [{0: QQ(1)}, {1: QQ(1)}]
    assert kernel_basis(rows, 2) == []


def test_kernel_of_zero_map_is_everything():
    assert len(kernel_basis([], 4)) == 4


def test_echelon_and_rref_consistency():
    rows = [
        {0: QQ(1), 1: QQ(1)},
        {0: QQ(1), 2: QQ(1)},
        {1: QQ(-1), 2: QQ(1)},
    ]
    ech = echelonize(list(map(cleared, rows)))
    red = echelonize(list(map(cleared, rows)))
    assert len(ech) == len(red) == 2
    for pivot, row in red.items():
        assert row[pivot] == QQ(1)
        for other in red:
            if other != pivot:
                assert other not in row


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_vectors_annihilate(rows):
    rows = [{k: v for k, v in row.items() if v} for row in rows]
    for vec in kernel_basis(rows, 5):
        for row in rows:
            acc = QQ(0)
            for j, c in row.items():
                acc += c * vec.get(j, QQ(0))
            assert acc == QQ(0)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_plus_nullity(rows):
    rows = [{k: v for k, v in row.items() if v} for row in rows]
    assert rank(rows) + len(kernel_basis(rows, 5)) == 5


@settings(max_examples=60, deadline=None)
@given(matrices, st.lists(rationals, min_size=5, max_size=5))
def test_solve_consistent_systems(rows, xs):
    """rhs built from a known solution must be solvable, and any returned
    solution must satisfy every equation exactly."""
    rows = [{k: v for k, v in row.items() if v} for row in rows]
    rhs = []
    for row in rows:
        acc = QQ(0)
        for j, c in row.items():
            acc += c * xs[j]
        rhs.append(acc)
    sol = solve(rows, rhs, 5)
    assert sol is not None
    for row, b in zip(rows, rhs):
        acc = QQ(0)
        for j, c in row.items():
            acc += c * sol.get(j, QQ(0))
        assert acc == b


def test_exactness_with_awkward_fractions():
    rows = [
        {0: QQ(1, 3), 1: QQ(1, 7)},
        {0: QQ(1, 11), 1: QQ(-1, 13)},
    ]
    rhs = [QQ(1), QQ(0)]
    sol = solve(rows, rhs, 2)
    assert QQ(1, 3) * sol[0] + QQ(1, 7) * sol[1] == QQ(1)
    assert QQ(1, 11) * sol[0] - QQ(1, 13) * sol[1] == QQ(0)


def test_no_caller_builds_a_rational_view_to_solve():
    """Every column and target reaches kernel_of, rank_of and preimage as a
    (D, items) pair: no call to them in the package reads a sparse vector's
    rational ``coeffs`` view among its arguments."""
    calls, found = 0, []
    for path in sorted(Path(starlift.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            func = getattr(node, "func", None)
            name = getattr(func, "attr", getattr(func, "id", None))
            if isinstance(node, ast.Call) and name in ("kernel_of", "rank_of", "preimage"):
                calls += 1
                found += [f"{path.name}:{sub.lineno}" for arg in node.args + node.keywords
                          for sub in ast.walk(arg)
                          if isinstance(sub, ast.Attribute) and sub.attr == "coeffs"]
    assert calls >= 10
    assert found == []
