"""The column-image entry points of linsolve against sympy's DomainMatrix
over QQ, on columns with their own denominators too, their independence of
key order, answers over the basis keys as the positional answers
relabelled, the integer elimination against the Fraction elimination it
replaced, and c_s_graded_dims against the successive-difference
computation it replaced. The rational columns drawn here reach linsolve as
(D, items) pairs (conftest.as_pair); echelonize gets integer rows
(conftest.cleared), and its Fraction oracle the rational rows."""
import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ as SQQ
from sympy.polys.matrices import DomainMatrix

from starlift import c_s_basis, c_s_graded_dims, qt_validate
from starlift import linsolve
from starlift._rat import QQ, ZERO
from starlift.linsolve import echelonize, kernel_of, preimage, rank_of

from conftest import as_pair, cleared

# Keys are arbitrary hashables, as the callers use them: ints, strings,
# monomial tuples and (generator, monomial) pairs.
KEYS = st.one_of(
    st.integers(-3, 3),
    st.text("abc", max_size=2),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 1), st.tuples(st.integers(0, 2))),
)
NONZERO = st.builds(QQ, st.integers(1, 4) | st.integers(-4, -1), st.integers(1, 3))


@st.composite
def systems(draw):
    """(keys, images, target): columns and a right-hand side over keys."""
    keys = draw(st.lists(KEYS, unique=True, max_size=6))
    sparse = st.dictionaries(st.sampled_from(keys), NONZERO) if keys else st.just({})
    images = draw(st.lists(sparse, max_size=6))
    target = draw(sparse)
    return keys, images, target


def _oracle(keys, images, target=None):
    """The map as a sympy matrix, rows in key order, with target appended
    as a last column when given."""
    cols = list(images) + ([target] if target is not None else [])
    rows = [[SQQ(0)] * len(cols) for _ in keys]
    for j, col in enumerate(cols):
        for key, v in col.items():
            rows[keys.index(key)][j] = SQQ(v.numerator, v.denominator)
    return DomainMatrix(rows, (len(keys), len(cols)), SQQ)


def _q(x):
    return QQ(int(x.numerator), int(x.denominator))


def _rref_nullspace(M, ncols):
    """The kernel basis read off sympy's RREF, one vector per free column."""
    R, pivots = M.rref()
    R = R.to_list()
    out = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = {j: QQ(1)}
        for i, c in enumerate(pivots):
            if R[i][j]:
                vec[c] = -_q(R[i][j])
        out.append(vec)
    return out


def _canonical_solution(M, ncols):
    """The solution with free variables zero, read off the augmented RREF,
    or None when the last column is a pivot."""
    R, pivots = M.rref()
    if ncols in pivots:
        return None
    R = R.to_list()
    return {c: _q(R[i][ncols]) for i, c in enumerate(pivots) if R[i][ncols]}


def _columns(images):
    """The rational images as positional (D, items) columns."""
    return dict(enumerate(map(as_pair, images)))


@settings(max_examples=300, deadline=None)
@given(systems())
def test_entry_points_match_sympy(system):
    keys, images, target = system
    M = _oracle(keys, images)
    assert rank_of(map(as_pair, images)) == M.rank()
    assert kernel_of(_columns(images)) == _rref_nullspace(M, len(images))
    x = preimage(_columns(images), as_pair(target))
    assert x == _canonical_solution(_oracle(keys, images, target), len(images))
    if x is not None:
        image = {}
        for j, xj in x.items():
            for key, v in images[j].items():
                image[key] = image.get(key, QQ(0)) + xj * v
        assert {k: v for k, v in image.items() if v} == target


@settings(max_examples=200, deadline=None)
@given(systems(), st.randoms(use_true_random=False))
def test_key_order_changes_nothing(system, rnd):
    keys, images, target = system
    order = list(keys)
    rnd.shuffle(order)

    def reordered(col):
        return {key: col[key] for key in order if key in col}

    shuffled = [reordered(col) for col in images]
    assert kernel_of(_columns(shuffled)) == kernel_of(_columns(images))
    assert rank_of(map(as_pair, shuffled)) == rank_of(map(as_pair, images))
    assert (preimage(_columns(shuffled), as_pair(reordered(target)))
            == preimage(_columns(images), as_pair(target)))


@st.composite
def keyed_systems(draw):
    """(labels, images, target): a rank-deficient system, one column a
    combination of the others, whose columns carry distinct labels listed in
    an order other than their sorted one; the target is in the image or not."""
    keys, images, _ = draw(systems())
    coeffs = draw(st.lists(NONZERO, min_size=len(images), max_size=len(images)))
    combo = {}
    for a, col in zip(coeffs, images):
        for key, v in col.items():
            combo[key] = combo.get(key, QQ(0)) + a * v
    images.insert(draw(st.integers(0, len(images))), {k: v for k, v in combo.items() if v})
    labels = draw(st.lists(st.tuples(st.sampled_from("uvw"), st.integers(0, 9)),
                           unique=True, min_size=len(images), max_size=len(images)))
    assume(labels != sorted(labels))
    if draw(st.booleans()):
        target = combo
    else:
        target = draw(st.dictionaries(st.sampled_from(keys), NONZERO)) if keys else {}
    return keys, labels, images, {k: v for k, v in target.items() if v}


@settings(max_examples=300, deadline=None)
@given(keyed_systems())
def test_keyed_answers_are_positional_answers_relabelled(system):
    """Kernel vectors and preimages over the basis keys are the positional
    answers (which sympy's RREF confirms) with position j renamed to the j-th
    key inserted: the insertion order, not the key order, fixes the answer."""
    keys, labels, images, target = system
    keyed = dict(zip(labels, map(as_pair, images)))
    positional = _columns(images)

    kernel = kernel_of(positional)
    assert kernel == _rref_nullspace(_oracle(keys, images), len(images))
    assert kernel  # rank-deficient
    assert kernel_of(keyed) == [{labels[j]: c for j, c in vec.items()} for vec in kernel]

    x = preimage(positional, as_pair(target))
    assert x == _canonical_solution(_oracle(keys, images, target), len(images))
    relabelled = None if x is None else {labels[j]: c for j, c in x.items()}
    assert preimage(keyed, as_pair(target)) == relabelled


# ---- the Fraction elimination, kept verbatim as the oracle of the integer one ---

def _subtract(row: dict, coef, piv: dict, skip) -> None:
    """row -= coef * piv in place, over every column of piv except skip."""
    for cc, vv in piv.items():
        if cc != skip:
            nv = row.get(cc, ZERO) - coef * vv
            if nv:
                row[cc] = nv
            else:
                del row[cc]


def ref_echelonize(rows) -> dict:
    """Reduced row echelon form: map pivot column -> row, with 1 at its
    pivot (the row's smallest column) and no entry in any other pivot column."""
    echelon = {}
    holders = {}  # column -> pivots whose rows held an entry there (may be stale)
    for row in sorted((dict(r) for r in rows if r), key=min, reverse=True):
        for c in [c for c in row if c in echelon]:  # reduced pivot rows: one pass
            _subtract(row, row.pop(c), echelon[c], c)
        if not row:
            continue
        p = min(row)
        inv = QQ(1) / row[p]
        row = {cc: vv * inv for cc, vv in row.items()}
        others = [cc for cc in row if cc != p]
        for q in holders.pop(p, ()):
            prow = echelon[q]
            coef = prow.pop(p, None)
            if coef is not None:
                _subtract(prow, coef, row, p)
                for cc in others:
                    holders.setdefault(cc, set()).add(q)
        for cc in others:
            holders.setdefault(cc, set()).add(p)
        echelon[p] = row
    return echelon


SMALL = st.integers(1, 6) | st.integers(-6, -1)
ENTRIES = {
    "int": SMALL,
    "rational": st.builds(QQ, SMALL, st.integers(1, 4)),
    "mixed": SMALL | st.builds(QQ, SMALL, st.integers(1, 4)),
}


def _combination(rows, coeffs):
    out = {}
    for a, row in zip(coeffs, rows):
        for c, v in row.items():
            out[c] = out.get(c, 0) + a * v
    return {c: v for c, v in out.items() if v}


@st.composite
def integer_and_rational_rows(draw):
    """Rows over columns 0..5 with int, rational or mixed entries, among them
    negated and repeated copies and combinations of the others, so that
    systems are rank-deficient and rows cancel to zero; in any order."""
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    cols = st.integers(0, 5)
    rows = draw(st.lists(st.dictionaries(cols, entry, min_size=1, max_size=6),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["copy", "negated", "combination"]))
        if kind == "combination":
            coeffs = draw(st.lists(entry | st.just(0), min_size=len(rows), max_size=len(rows)))
            rows.append(_combination(rows, coeffs))
        else:
            row = draw(st.sampled_from(rows))
            rows.append(dict(row) if kind == "copy" else {c: -v for c, v in row.items()})
    return draw(st.permutations(rows))


def _cols_of(rows):
    cols = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            cols.setdefault(c, {})[i] = v
    return dict(sorted(cols.items()))


@settings(max_examples=400, deadline=None)
@given(integer_and_rational_rows(), st.data())
def test_integer_elimination_answers_as_the_fraction_elimination(rows, data):
    """The same pivots in the same order, every row with the same entries in
    the same key order, and the same kernels, ranks and preimages, on targets
    inside the image and outside it."""
    echelon, ref = echelonize(list(map(cleared, rows))), ref_echelonize(rows)
    assert echelon == ref
    assert list(echelon) == list(ref)
    for c in ref:
        assert list(echelon[c].items()) == list(ref[c].items())

    cols = _cols_of(rows)
    images = {c: as_pair(col) for c, col in cols.items()}
    coeffs = data.draw(st.lists(SMALL | st.just(0), min_size=len(images), max_size=len(images)))
    inside = as_pair(_combination(list(cols.values()), coeffs))
    outside = as_pair(data.draw(st.dictionaries(st.integers(0, len(rows) - 1), ENTRIES["mixed"])))
    answers = [kernel_of(images), rank_of(images.values()),
               preimage(images, inside), preimage(images, outside)]
    assert answers[2] is not None
    with mock.patch.object(linsolve, "echelonize", ref_echelonize):
        assert answers == [kernel_of(images), rank_of(images.values()),
                           preimage(images, inside), preimage(images, outside)]


@settings(max_examples=200, deadline=None)
@given(integer_and_rational_rows())
def test_every_pivot_row_is_primitive_with_a_positive_pivot(rows):
    """Each new or updated pivot row the elimination keeps is an integer row
    whose entries have gcd 1 and whose pivot (smallest column) is positive."""
    kept = []
    primitive = linsolve._primitive

    def recorded(row, p):
        out = primitive(row, p)
        kept.append((dict(out), p))  # a snapshot: pivot rows change in place later
        return out

    with mock.patch.object(linsolve, "_primitive", recorded):
        echelonize(list(map(cleared, rows)))
    assert kept
    for row, p in kept:
        assert p == min(row) and row[p] > 0
        assert all(type(v) is int for v in row.values())
        assert math.gcd(*row.values()) == 1


@st.composite
def pair_systems(draw):
    """(keys, columns, rational, target, rational target): columns drawn as
    (D, items) pairs, each with its own D in 1..12 over nonzero integer
    numerators, so that a pair need not be in lowest terms; the rational
    columns they stand for; a column that combines the others, when drawn,
    so that the system is rank-deficient; and a target pair, in the image
    or drawn freely, with its rational values."""
    keys = draw(st.lists(KEYS, unique=True, min_size=1, max_size=6))
    numerators = st.dictionaries(st.sampled_from(keys), SMALL)
    columns = [(D, list(nums.items())) for D, nums in
               draw(st.lists(st.tuples(st.integers(1, 12), numerators), max_size=6))]

    def pair(col):  # col as a pair over a multiple of its lcm denominator
        D, items = as_pair(col)
        m = draw(st.integers(1, 4))
        return D * m, [(key, n * m) for key, n in items]

    rational = [{key: QQ(n, D) for key, n in items} for D, items in columns]
    combo = _combination(rational, draw(st.lists(NONZERO, min_size=len(columns),
                                                 max_size=len(columns))))
    if columns and draw(st.booleans()):
        at = draw(st.integers(0, len(columns)))
        columns.insert(at, pair(combo))
        rational.insert(at, combo)
    if draw(st.booleans()):
        target = combo
    else:
        target = draw(st.dictionaries(st.sampled_from(keys), NONZERO))
    return keys, columns, rational, pair(target), target


@settings(max_examples=400, deadline=None)
@given(pair_systems())
def test_pair_columns_match_sympy_on_their_rational_matrix(system):
    """Each column with its own denominator: kernel_of's vectors rescaled by
    D_c / D_f and preimage's solution by D_c / D_target are the answers of
    sympy's RREF on the rational matrix the pairs stand for."""
    keys, columns, rational, target, rational_target = system
    M = _oracle(keys, rational)
    assert rank_of(columns) == M.rank()
    assert kernel_of(dict(enumerate(columns))) == _rref_nullspace(M, len(columns))
    assert (preimage(dict(enumerate(columns)), target)
            == _canonical_solution(_oracle(keys, rational, rational_target), len(columns)))


def successive_difference_dims(s, maxdeg, qt):
    """Reference: dim gr(C_s) as differences of kernel dimensions at each
    filtration cutoff, one kernel per cutoff."""
    dims = []
    prev = 0
    for d in range(maxdeg + 1):
        cur = len(c_s_basis(s, d, qt))
        dims.append(cur - prev)
        prev = cur
    return tuple(dims)


@pytest.mark.parametrize("s", [QQ(1), QQ(0), QQ(-3, 4), QQ(2)], ids=str)
def test_c_s_graded_dims_matches_successive_differences(sl2qt, s):
    qt = qt_validate(*sl2qt)
    reference = successive_difference_dims(s, 5, qt)
    for maxdeg in range(6):
        assert c_s_graded_dims(s, maxdeg, qt) == reference[:maxdeg + 1]
