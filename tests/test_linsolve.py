import ast
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import starlift
from starlift._rat import QQ
from starlift.linsolve import echelonize, kernel_of, preimage, rank_of

from conftest import as_pair, cleared, from_pair
from test_linsolve_oracle import ref_echelonize

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
# as (D, items) pairs, with the (D, nums) answers read as rationals.
def solve(rows, rhs, ncols):
    return from_pair(preimage(dict(enumerate(map(as_pair, _cols(rows, ncols)))),
                              as_pair({i: b for i, b in enumerate(rhs) if b})))


def rank(rows, ncols=5):
    return rank_of(map(as_pair, _cols(rows, ncols)))


def kernel_basis(rows, ncols):
    return list(map(from_pair, kernel_of(dict(enumerate(map(as_pair, _cols(rows, ncols)))))))


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
    """Rows whose reduced form has pivot entries 2 and 3 once primitive:
    each pivot row is a primitive integer row with a positive pivot entry
    and no entry in another pivot column, and divided by its pivot entry it
    is the row of the Fraction elimination."""
    rows = [
        {0: QQ(1), 1: QQ(1), 2: QQ(1, 6)},
        {0: QQ(1), 1: QQ(-1), 2: QQ(5, 6)},
        {0: QQ(-2), 2: QQ(-1)},
    ]
    ech, ref = echelonize(list(map(cleared, rows))), ref_echelonize(rows)
    assert ech == {0: {0: 2, 2: 1}, 1: {1: 3, 2: -1}}
    assert list(ech) == list(ref)
    for pivot, row in ech.items():
        assert all(type(v) is int for v in row.values())
        assert row[pivot] > 0 and gcd(*row.values()) == 1
        assert {c: QQ(n, row[pivot]) for c, n in row.items()} == ref[pivot]
        assert not set(row) & set(ech) - {pivot}


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


SOLVERS = ("kernel_of", "preimage", "invariant_kernel", "_preimage")
CLEARERS = ("make", "_integer", "_cleared")
CONVERSIONS = ("dict", "list", "tuple", "sorted", "zip", "map", "enumerate", "iter", "reversed")
ANSWER = object()  # a solver call's result, among the names an expression passes on


def _callee(call):
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def _passed(node) -> set:
    """The names whose values node passes on, with ANSWER for a solver call:
    every name it reads, except in the arguments of a call other than a
    builtin conversion, whose result is a new value (a method call still
    passes on its receiver)."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Call) and _callee(node) in SOLVERS:
        return {ANSWER}
    if isinstance(node, ast.Call) and _callee(node) not in CONVERSIONS:
        return _passed(node.func)
    return set().union(*map(_passed, ast.iter_child_nodes(node)))


def _bound(node) -> set:
    """The names a binding target stores to."""
    return {sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}


def test_no_caller_clears_a_solver_answer():
    """linsolve imports nothing from _rat, and the (D, nums) answers of
    kernel_of, preimage and invariant_kernel reach a constructor as they
    are: in no function of the package does a .make, _integer or _cleared
    call take such an answer, directly or through a name bound to one (by
    assignment, unpacking, a for loop, a comprehension or an update)."""
    package = Path(starlift.__file__).parent
    linsolve_tree = ast.parse((package / "linsolve.py").read_text())
    assert not [node for node in ast.walk(linsolve_tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module == "_rat" or "_rat" in [a.name for a in node.names])]
    bindings, found = 0, []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            answers = {ANSWER}
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and ANSWER in _passed(node.value):
                    answers |= set().union(*map(_bound, node.targets))
                elif (isinstance(node, (ast.For, ast.comprehension))
                      and ANSWER in _passed(node.iter)):
                    answers |= _bound(node.target)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name)
                      and any(ANSWER in _passed(arg) for arg in node.args)):
                    answers.add(node.func.value.id)
            bindings += len(answers) - 1
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and _callee(node) in CLEARERS
                      and any(_passed(arg) & answers
                              for arg in node.args + [kw.value for kw in node.keywords])]
    assert bindings >= 8
    assert found == []


def test_only_invariant_kernel_and_c_s_basis_solve_a_kernel():
    """linsolve.kernel_of is named (called, imported, aliased or looked up
    by its string) only in core.invariant_kernel, which every g-invariant
    space goes through, and in quasitriangular.c_s_basis: no g-invariant
    space can grow a second kernel of its own."""
    found = set()
    for path in sorted(Path(starlift.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if ((isinstance(node, ast.Name) and node.id == "kernel_of")
                        or (isinstance(node, ast.Attribute) and node.attr == "kernel_of")
                        or (isinstance(node, ast.alias) and node.name == "kernel_of")
                        or (isinstance(node, ast.Constant) and node.value == "kernel_of")):
                    found.add((path.stem, getattr(top, "name", None)))
    assert found == {("core", "invariant_kernel"), ("quasitriangular", "c_s_basis")}
