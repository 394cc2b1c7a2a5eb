"""Algebra validation and hashing: the sparse Jacobi and ad-invariance
checks against the dense loops they replaced, the one antisymmetry
predicate of g and r against the dense sweep, LieAlgebraSpec.from_brackets
against the cube loop it replaced, the once-only hash of a spec, the memory
a sparse r takes, and strict parsing of algebra inputs and raw r' matrices."""
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import starlift
from starlift import (
    LieAlgebraSpec,
    RMatrix,
    center,
    copoisson_delta,
    dual_bracket,
    load_lie_algebra,
)
from starlift._rat import QQ, ZERO, rat
from starlift.cli import main
from starlift.core import MAX_DIM, _asymmetry
from starlift.envelope import PBWElement, _straighten
from starlift.errors import (
    AntisymmetryViolation,
    JacobiViolation,
    ParseError,
    StarliftError,
    TNotInvariant,
)
from starlift.quasitriangular import qt_validate

from conftest import data_path, dense_c, dense_r, from_cube

LITERALS = ("1", "-1", "2", "-2", "1/2", "-3/2")


def dense_validate(d, c):
    """Reference oracle: the dense O(d^5) antisymmetry and Jacobi sweep."""
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if c[i][j][k] != -c[j][i][k]:
                    raise AntisymmetryViolation(
                        f"c[{i}][{j}][{k}] != -c[{j}][{i}][{k}]", triple=(i, j, k)
                    )
    for i in range(d):
        for j in range(d):
            for l in range(d):
                for k in range(d):
                    s = ZERO
                    for m in range(d):
                        s += c[j][l][m] * c[i][m][k]
                        s += c[l][i][m] * c[j][m][k]
                        s += c[i][j][m] * c[l][m][k]
                    if s != 0:
                        raise JacobiViolation(
                            f"Jacobi fails on basis triple ({i},{j},{l})", triple=(i, j, l)
                        )


def dense_invariance(g, t):
    """Reference oracle: the dense (k, i, j) ad-invariance sweep of t."""
    d = g.dim
    c = dense_c(g)
    for k in range(d):
        for i in range(d):
            for j in range(d):
                s = ZERO
                for m in range(d):
                    s += c[k][m][i] * t[m][j] + c[k][m][j] * t[i][m]
                if s:
                    raise TNotInvariant(f"symmetric part not ad-invariant at ({k},{i},{j})")


def outcome(fn, *args):
    try:
        fn(*args)
    except StarliftError as exc:
        return type(exc), str(exc), exc.context.get("triple")
    return "ok"


@st.composite
def algebra_inputs(draw, max_dim=5):
    """A JSON algebra input of dim 2..max_dim with a few sparse bracket entries."""
    d = draw(st.integers(2, max_dim))
    idx = st.integers(0, d - 1)
    term = st.tuples(idx, st.sampled_from(LITERALS)).map(list)
    entry = st.tuples(idx, idx, st.lists(term, min_size=1, max_size=2)).map(list)
    return {"dim": d, "brackets": draw(st.lists(entry, max_size=6))}


def data_cube(data):
    """The structure constants load_lie_algebra builds from ``data``, as a cube."""
    d = data["dim"]
    c = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
    for i, j, terms in data["brackets"]:
        for k, v in terms:
            c[i][j][k] += rat(v)
            c[j][i][k] -= rat(v)
    return c


@settings(max_examples=200, deadline=None)
@given(algebra_inputs())
def test_sparse_jacobi_matches_dense_oracle_on_load(data):
    """An [i, i] entry (every drawn term is nonzero) is refused; without
    those entries, which cancel in c, the sparse Jacobi check agrees with
    the dense one."""
    expected = outcome(dense_validate, data["dim"], data_cube(data))
    assert outcome(load_lie_algebra, without_self_brackets(data)) == expected
    selfs = [ent for ent in data["brackets"] if ent[0] == ent[1]]
    if selfs:
        i = selfs[0][0]
        expected = (ParseError, f"bracket [{i},{i}] must be zero: {selfs[0]!r}", None)
    assert outcome(load_lie_algebra, data) == expected


def without_self_brackets(data):
    """data without its [i, i] entries, which from_brackets cancels."""
    return dict(data, brackets=[ent for ent in data["brackets"] if ent[0] != ent[1]])


@pytest.mark.parametrize("terms, code", [([[0, "1"]], 2), ([[0, "0"]], 0), ([], 0)])
def test_self_bracket_must_be_zero(capsys, terms, code):
    """[x_0, x_0] = x_0 is refused with exit 2, not loaded as zero."""
    spec = json.dumps({"dim": 1, "brackets": [[0, 0, terms]]})
    assert main(["validate", spec]) == code
    out = json.loads(capsys.readouterr().out)
    if code:
        assert out["error"] == {"type": "ParseError",
                                "message": f"bracket [0,0] must be zero: {[0, 0, terms]!r}"}


@settings(max_examples=200, deadline=None)
@given(algebra_inputs(), st.data())
def test_sparse_validate_matches_dense_oracle_without_antisymmetry(data, draw):
    """Specs built directly may break antisymmetry, which is checked first."""
    assert_direct_spec_validates_as_dense(data, draw)


def assert_direct_spec_validates_as_dense(data, draw):
    """The spec of data's cube with up to two drawn terms added to single
    entries, built directly, validates as the dense sweep does."""
    d = data["dim"]
    c = data_cube(data)
    for i, j, k, v in draw.draw(st.lists(st.tuples(
            st.integers(0, d - 1), st.integers(0, d - 1), st.integers(0, d - 1),
            st.sampled_from(LITERALS)), max_size=2)):
        c[i][j][k] += rat(v)
    spec = from_cube(d, (f"x{i}" for i in range(d)), c)
    assert outcome(spec.validate) == outcome(dense_validate, d, c)


# A full dense sweep at dim 12 takes 2 s, so shrinking, which reruns it per
# step, is off: a failing example is reported as found.
@settings(max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(algebra_inputs(max_dim=12), st.data())
def test_sparse_validate_matches_dense_oracle_on_far_apart_brackets(data, draw):
    """Dims up to 12 with at most 6 entries, so that bracketed pairs sit far
    apart and most triples are never reached: on load, and built directly
    with antisymmetry possibly broken."""
    data = without_self_brackets(data)
    assert outcome(load_lie_algebra, data) == outcome(dense_validate, data["dim"], data_cube(data))
    assert_direct_spec_validates_as_dense(data, draw)


def ref_first_asymmetry(items, d, arity):
    """Reference oracle: the dense sweep over every index tuple in index
    order for the first whose value is not minus its swap's (the first two
    indices exchanged), absent keys reading zero."""
    c = dict(items)
    return next((key for key in itertools.product(range(d), repeat=arity)
                 if c.get(key, ZERO) != -c.get((key[1], key[0], *key[2:]), ZERO)), None)


@st.composite
def sparse_items(draw):
    """(items, d, arity): nonzero (key, v) items in key order over 2- or
    3-index keys in 0..d-1, diagonal keys included. Each drawn key's swap
    is absent, holds -v, or holds a drawn value."""
    arity, d = draw(st.sampled_from((2, 3))), draw(st.integers(1, 4))
    val = st.sampled_from(LITERALS).map(rat)
    c = {}
    for key in draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * arity), max_size=6)):
        c[key] = v = draw(val)
        swap = (key[1], key[0], *key[2:])
        partner = draw(st.sampled_from(("absent", "antisymmetric", "drawn")))
        if partner == "antisymmetric" and swap != key:
            c[swap] = -v
        elif partner == "drawn":
            c[swap] = draw(val)
    return tuple(sorted(c.items())), d, arity


@settings(max_examples=400, deadline=None)
@given(sparse_items())
def test_asymmetry_is_the_first_failure_of_the_dense_sweep(case):
    """One predicate for g's bracket (3-index keys) and r (2-index keys)."""
    items, d, arity = case
    assert _asymmetry(items) == ref_first_asymmetry(items, d, arity)


def ref_from_brackets(basis_names, terms):
    """The cube loop load_lie_algebra ran before LieAlgebraSpec.from_brackets,
    kept verbatim, stored as the cube's nonzero entries."""
    dim = len(basis_names)
    c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, val in terms:
        c[i][j][k] += val
        c[j][i][k] -= val
    return from_cube(dim, basis_names, c).validate()


@st.composite
def bracket_terms(draw):
    """(basis names, (i, j, k, v) terms) over dims 1-4, with i == j terms and
    terms that repeat an (i, j, k) mixed in."""
    d = draw(st.integers(1, 4))
    idx = st.integers(0, d - 1)
    val = st.sampled_from(LITERALS).map(rat)
    terms = draw(st.lists(st.tuples(idx, idx, idx, val), max_size=5))
    diagonal = [(i, i, k, v) for i, k, v in draw(st.lists(st.tuples(idx, idx, val), max_size=2))]
    repeats = [(i, j, k, draw(val)) for i, j, k, _ in
               draw(st.lists(st.sampled_from(terms), max_size=2))] if terms else []
    return [f"x{i}" for i in range(d)], draw(st.permutations(terms + diagonal + repeats))


@settings(max_examples=300, deadline=None)
@given(bracket_terms())
def test_from_brackets_matches_cube_loop(case):
    """An equal spec, or the same JacobiViolation and triple."""
    names, terms = case
    want = outcome(ref_from_brackets, names, terms)
    assert outcome(LieAlgebraSpec.from_brackets, names, terms) == want
    if want == "ok":
        assert LieAlgebraSpec.from_brackets(names, terms) == ref_from_brackets(names, terms)


@pytest.mark.parametrize("name", ["abelian3", "nonabelian2", "sl2", "sl2-qt", "sl3"])
def test_shipped_inputs_load_as_the_cube_loop_builds_them(name):
    with open(data_path(name)) as fh:
        data = json.load(fh)
    terms = [(i, j, k, rat(v)) for i, j, ts in data.get("brackets", []) for k, v in ts]
    names = data.get("basis", [f"x{i}" for i in range(data["dim"])])
    assert load_lie_algebra(data_path(name))[0] == ref_from_brackets(names, terms)


@settings(max_examples=150, deadline=None)
@given(algebra_inputs(), st.data())
def test_sparse_invariance_matches_dense_oracle(data, draw):
    """r' = y(x)y has CYB(r') = 0 for every y, so qt_validate reaches the
    ad-invariance check of t = 2 y(x)y, which holds iff y is central."""
    try:
        g, _ = load_lie_algebra(without_self_brackets(data))
    except JacobiViolation:
        assume(False)
    d = g.dim
    y = draw.draw(st.lists(st.sampled_from(("0",) + LITERALS), min_size=d, max_size=d))
    y = [rat(v) for v in y]
    rprime = tuple(tuple(y[i] * y[j] for j in range(d)) for i in range(d))
    t = tuple(tuple(2 * v for v in row) for row in rprime)
    assert outcome(qt_validate, g, rprime) == outcome(dense_invariance, g, t)


class CountingTuple(tuple):
    """A tuple that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


def test_structure_constants_hashed_once(sl2):
    alg, r = sl2
    spec = LieAlgebraSpec(alg.dim, alg.basis_names, CountingTuple(alg.brackets))
    CountingTuple.hashes = 0
    assert len(center(spec, 2)) == 2
    dual = dual_bracket(RMatrix(spec, r.entries))
    for mono in ((0, 2), (1, 1, 2)):
        copoisson_delta(PBWElement.make(dual, {mono: QQ(1)}), spec)
    assert CountingTuple.hashes <= 1


def test_equal_specs_hash_equal_and_share_memo(sl2):
    alg, _ = sl2
    twin = LieAlgebraSpec(alg.dim, tuple(alg.basis_names), tuple(item for item in alg.brackets))
    assert twin is not alg and twin == alg
    assert hash(twin) == hash(alg) == hash((alg.dim, alg.basis_names, alg.brackets))
    assert _straighten(twin, (2, 1, 0)) is _straighten(alg, (2, 1, 0))


def test_repeated_r_entries_add_up():
    """Entries for one (i, j) are summed, and a sum of zero is not stored."""
    _, r = load_lie_algebra({"dim": 3, "r": [[1, 0, "-1"], [0, 1, "1"], [2, 2, "1"],
                                             [0, 1, "1/2"], [1, 0, "-1/2"], [2, 2, "-1"]]})
    assert (r.entries, r.kind) == ((((0, 1), QQ(3, 2)), ((1, 0), QQ(-3, 2))),
                                   "antisymmetric-coboundary")


def test_dim_must_not_be_bool():
    with pytest.raises(ParseError, match="dim"):
        load_lie_algebra({"dim": True, "brackets": []})
    with pytest.raises(ParseError, match="dim"):
        load_lie_algebra('{"dim": false}')


@pytest.mark.parametrize("bad", [0.5, True])
def test_raw_rprime_entries_are_parsed_strictly(sl2qt, bad):
    """qt_validate reads a raw matrix as load_lie_algebra reads r: a float
    or a bool is refused, not taken for 1/2 or 1."""
    g, rp = sl2qt
    rows = [list(row) for row in dense_r(rp.entries, g.dim)]
    rows[1][1] = bad
    with pytest.raises(ParseError, match=r"r'\[1,1\]"):
        qt_validate(g, rows)
    assert qt_validate(g, [list(row) for row in dense_r(rp.entries, g.dim)]).r == qt_validate(g, rp).r


@pytest.mark.parametrize("shape", ["two rows", "ragged", "ints", "long row", "extra row"])
def test_raw_rprime_shape_is_checked(sl2qt, shape):
    """qt_validate refuses a raw r' that is not dim lists of dim entries,
    rather than failing inside or dropping the extra entries."""
    g, rp = sl2qt
    rows = [list(row) for row in dense_r(rp.entries, g.dim)]
    bad = {"two rows": rows[:2],
           "ragged": rows[:1] + [rows[1][:2]] + rows[2:],
           "ints": [1, 2, 3],
           "long row": rows[:1] + [rows[1] + ["1"]] + rows[2:],
           "extra row": rows + [["1"] * g.dim]}[shape]
    with pytest.raises(ParseError, match="r' must be"):
        qt_validate(g, bad)


def test_bracket_coefficients_must_be_ascii_literals():
    """An Arabic-Indic one with a trailing newline is not the literal 1."""
    with pytest.raises(ParseError, match=r"^bracket \[0,1\]: malformed rational literal"):
        load_lie_algebra({"dim": 2, "brackets": [[0, 1, [[0, "\u0661\n"]]]]})


# Run in a child whose address space is capped, so that a regression that
# allocates by dim fails there and not on the host.
CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({cap} << 20, {cap} << 20))
from starlift import LieAlgebraSpec
from starlift.cli import main
"""


def run_capped(cap_mb, code):
    env = dict(os.environ, PYTHONPATH=str(Path(starlift.__file__).parent.parent))
    return subprocess.run([sys.executable, "-c", CAPPED.format(cap=cap_mb) + code], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("field", ["brackets", "r"])
def test_huge_dim_is_refused_before_it_is_allocated(field):
    spec = json.dumps({"dim": 10 ** 6, field: []})
    proc = run_capped(1024, f"sys.exit(main(['validate', {spec!r}]))")
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["error"] == {
        "type": "ParseError", "message": f"dim must be at most {MAX_DIM}, got 1000000"}


def test_abelian_validation_allocates_nothing_by_dim():
    """Abelian dim 2,000 builds and validates in 512 MB, where a dim^3 cube
    would need 8e9 slots; the largest dim load accepts validates too."""
    proc = run_capped(512, f"""
alg = LieAlgebraSpec.from_brackets([f"x{{i}}" for i in range(2000)], [])
print(alg.brackets, alg.is_abelian)
sys.exit(main(["validate", '{{"dim": {MAX_DIM}, "brackets": []}}']))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("() True\n")


# Loading dim 1,000 with two r entries peaks at 0.1 MB of traced allocations
# and validating it at 0.53 MB (Fraction backend). While r was a dense dim x
# dim matrix they peaked at 15.4 and 69.3 MB, and while alt_project and
# is_invariant built a unit vector of length dim per basis element validate
# peaked at 8.3 MB. One dim x dim tuple of a shared zero takes 7.8 MB.
TRACED = """
import contextlib, io, sys, tracemalloc
from starlift import load_lie_algebra
from starlift.cli import main
tracemalloc.start()
load_lie_algebra(sys.argv[1])
load_peak = tracemalloc.get_traced_memory()[1]
tracemalloc.reset_peak()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["validate", sys.argv[1]])
print(code, load_peak, tracemalloc.get_traced_memory()[1])
"""


def test_sparse_r_loads_and_validates_in_little_memory():
    env = dict(os.environ, PYTHONPATH=str(Path(starlift.__file__).parent.parent))
    spec = json.dumps({"dim": MAX_DIM, "r": [[0, 1, "1"], [1, 0, "-1"]]})
    proc = subprocess.run([sys.executable, "-c", TRACED, spec], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, load_peak, validate_peak = map(int, proc.stdout.split())
    assert code == 0 and load_peak < 1 << 20 and validate_peak < 1 << 20, proc.stdout


def test_basis_names_must_be_distinct():
    with pytest.raises(ParseError, match="distinct"):
        load_lie_algebra({"dim": 2, "basis": ["a", "a"], "brackets": []})


# Cochain.make and LinearForm.make must refuse bad values with typed errors
# even when python -O strips assert statements.
UNDER_O = """
from starlift import FormalSeriesTensor, load_lie_algebra
from starlift.cohochschild import Cochain
from starlift.duality import LinearForm
from starlift.errors import StarliftError

print(__debug__)
alg, _ = load_lie_algebra({"dim": 2, "brackets": []})
mixed = FormalSeriesTensor.make(alg, 2, 4, {((1, 0), (0, 1)): 1, ((1, 0), (1, 1)): 1})
for call in (lambda: Cochain.make(2, 2, mixed), lambda: LinearForm.make(alg, {(1,): 1})):
    try:
        call()
    except StarliftError as exc:
        print(type(exc).__name__)
"""


def test_typed_errors_survive_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(starlift.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "NotHomogeneous", "AlgebraMismatch"]
