"""The linear structure shared by the four sparse types: zero, negation and
scaling behave alike, and each type refuses operands from another space
with its own typed error. The integer state of each type, and the kernels
that write it, are checked against Fraction oracles."""
import itertools
from functools import cache
from math import factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starlift import (FormalSeriesTensor, LinearForm, alt_project, coproduct_insert, dual_bracket,
                      g_action, lift, load_lie_algebra, multiply, pbw_product, poisson_bracket,
                      rho_product)
from starlift._rat import QQ
from starlift.cohochschild import _d_faces, _d_raw
from starlift.core import combine, key_degree
from starlift.duality import _coproduct_images, _vec_factorial
from starlift.envelope import PBWElement, PBWTensorSquare, _mult_square, coproduct_square
from starlift.errors import AlgebraMismatch
from starlift.star import bch_terms, star

from conftest import data_path, rational_rows
from test_kernel_oracle import (ALGEBRAS, COEFFS, ref_coproduct_insert, ref_g_action,
                                ref_poisson_bracket, settings_, tensors, vecs)


def _samples(alg):
    """One nonzero element of each sparse type over alg."""
    return {
        "series": FormalSeriesTensor.make(
            alg, 2, 4, {((1, 0, 0), (0, 1, 0)): QQ(2, 3), ((0, 0, 1), (1, 1, 0)): QQ(-5)}),
        "form": LinearForm.make(alg, {(1, 0, 0): QQ(1, 2), (0, 2, 1): QQ(-7, 3)}),
        "pbw": PBWElement.make(alg, {(0, 2): QQ(3), (1,): QQ(-1, 4)}),
        "square": PBWTensorSquare.make(alg, {((0,), (1, 2)): QQ(5, 6), ((), (2,)): QQ(1)}),
    }


@pytest.mark.parametrize("kind", ["series", "form", "pbw", "square"])
def test_linear_identities(sl2, kind):
    a = _samples(sl2[0])[kind]
    zero = type(a).zero(*a._frame())
    assert (a - a).is_zero() and a - a == zero
    assert a.scale(0).is_zero() and a.scale(0) == zero
    assert -(-a) == a
    assert a + zero == a
    assert type(a - a) is type(a) and (a - a)._frame() == a._frame()


def test_tensor_squares_over_different_algebras_do_not_add(sl2, nonabelian2):
    a = PBWTensorSquare.make(sl2[0], {((0,), (1,)): QQ(1)})
    b = PBWTensorSquare.make(nonabelian2[0], {((0,), (1,)): QQ(1)})
    with pytest.raises(AlgebraMismatch):
        a + b


@pytest.mark.parametrize("kind", ["form", "pbw", "square"])
def test_elements_of_g_and_its_dual_do_not_mix(sl2, kind):
    """An element over g and one with the same coefficients over g* (the
    spec dual_bracket builds, of the same dimension) are told apart by
    their algebra alone: they are unequal and do not add or multiply."""
    alg, r = sl2
    a, b = _samples(alg)[kind], _samples(dual_bracket(r))[kind]
    assert a.coeffs == b.coeffs and a != b
    for op in (type(a).__add__, type(a).__sub__):
        with pytest.raises(AlgebraMismatch):
            op(a, b)
    if kind == "pbw":
        with pytest.raises(AlgebraMismatch):
            pbw_product(a, b)


def test_algebra_framed_types_keep_the_base_frame():
    """Forms, PBW elements and tensor squares take their fields, constructor,
    frame and operand check from _SparseVec; only the series adds its own."""
    own = ("_fields", "__init__", "_frame", "_check_pair")
    for cls in (LinearForm, PBWElement, PBWTensorSquare):
        assert [name for name in own if name in vars(cls)] == [], cls.__name__
        assert cls._fields == ("alg", "numerators")
    assert all(name in vars(FormalSeriesTensor) for name in own)


# ---- the integer state of FormalSeriesTensor ------------------------------
# Kernels and linear operations write ``numerators`` only. Each result must
# hold them in normal form, and its rationals must be the Fraction oracle's.


def _normal_form(coeffs):
    """(D, [(key, n), ...]) recomputed from coeffs, in their key order: D is
    the lcm of the reduced denominators, 1 for the zero series."""
    vals = {key: QQ(v) for key, v in coeffs.items()}
    D = lcm(*(v.denominator for v in vals.values()))
    return D, [(key, v.numerator * (D // v.denominator)) for key, v in vals.items()]


def _fraction_sum(*terms):
    """sum of c * coeffs over (c, coeffs) terms, as a Fraction dict."""
    out = {}
    for c, coeffs in terms:
        for key, v in coeffs.items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def _ref_multiply(f, g):
    out = {}
    for kf, cf in f.coeffs.items():
        for kg, cg in g.coeffs.items():
            nk = tuple(tuple(a + b for a, b in zip(u, v)) for u, v in zip(kf, kg))
            if key_degree(nk) <= f.N:
                out[nk] = out.get(nk, 0) + cf * cg
    return {key: v for key, v in out.items() if v}


def _ref_star(f, g):
    """f + g + sum of c times each BCH word, bracketed by the Fraction oracle."""
    terms = [(1, f.coeffs), (1, g.coeffs)]
    for c, word in bch_terms(max(f.N - 1, 1)):
        t = f if word[-1] == 0 else g
        for letter in reversed(word[:-1]):
            t = ref_poisson_bracket(f if letter == 0 else g, t)
        terms.append((c, t.coeffs))
    return _fraction_sum(*terms)


def _ref_d(f):
    return _fraction_sum(*((sign, ref_coproduct_insert(f, blocks, f.k + 1).coeffs)
                           for sign, blocks in _d_faces(f.k)))


def _ref_alt(f):
    """(1/k!) sum_sigma sign(sigma) sigma over the multidegree-(1,...,1) keys."""
    terms = []
    for key, v in f.coeffs.items():
        if all(sum(vec) == 1 for vec in key):
            for perm in itertools.permutations(range(f.k)):
                inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                terms.append((QQ((-1) ** inversions, factorial(f.k)) * v,
                              {tuple(key[p] for p in perm): 1}))
    return _fraction_sum(*terms)


def _check(got, want):
    D, items = got.numerators
    assert D > 0 and gcd(D, *(n for _, n in items)) == 1
    assert got.numerators == _normal_form(got.coeffs)
    assert got.coeffs == want


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_integer_state_matches_fraction_oracle(data):
    alg, k, N = data.draw(settings_())
    f, g = data.draw(tensors(alg, k, N)), data.draw(tensors(alg, k, N))
    q = data.draw(st.one_of(st.just(0), COEFFS))
    M = data.draw(st.integers(0, N))
    i = data.draw(st.integers(0, alg.dim - 1))
    _, blocks = data.draw(st.sampled_from(_d_faces(k)))
    fc, gc = f.coeffs, g.coeffs
    _check(poisson_bracket(f, g), ref_poisson_bracket(f, g).coeffs)
    _check(g_action(i, f), ref_g_action(i, f).coeffs)
    _check(coproduct_insert(f, blocks, k + 1), ref_coproduct_insert(f, blocks, k + 1).coeffs)
    _check(_d_raw(f), _ref_d(f))
    _check(multiply(f, g), _ref_multiply(f, g))
    _check(alt_project(f), _ref_alt(f))
    _check(f + g, _fraction_sum((1, fc), (1, gc)))
    _check(f - g, _fraction_sum((1, fc), (-1, gc)))
    _check(-f, _fraction_sum((-1, fc)))
    _check(f.scale(q), _fraction_sum((q, fc)))
    mixed = combine([(q, f), (1, g), (QQ(-1, 2), f)])
    want = _fraction_sum((q, fc), (1, gc), (QQ(-1, 2), fc))
    _check(mixed, want)
    assert list(mixed.coeffs) == list(want)  # first-hit key order
    _check(f.truncate(M), {key: v for key, v in fc.items() if key_degree(key) <= M})
    _check(f.homogeneous_part(M), {key: v for key, v in fc.items() if key_degree(key) == M})
    assert (f - f).numerators == (1, []) and f.scale(0).numerators == (1, [])
    assert (f + f.scale(-1)).numerators == (1, [])
    # star takes elements of m^2
    high_f, high_g = (h - h.homogeneous_part(0) - h.homogeneous_part(1) for h in (f, g))
    _check(star(high_f, high_g), _ref_star(high_f, high_g))


# ---- the integer state of PBWElement, PBWTensorSquare and LinearForm ------
# The Fraction loops these types and their kernels replaced, kept as oracles.


@cache
def ref_straighten(alg, word):
    out = None
    for p in range(len(word) - 1):
        j, i = word[p], word[p + 1]
        if j <= i:
            continue
        out = {}
        swapped = word[:p] + (i, j) + word[p + 2:]
        for m, c in ref_straighten(alg, swapped).items():
            out[m] = out.get(m, QQ(0)) + c
        for k, c in rational_rows(alg).get(j, {}).get(i, ()):
            shorter = word[:p] + (k,) + word[p + 2:]
            for m, c2 in ref_straighten(alg, shorter).items():
                v = out.get(m, QQ(0)) + c * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        break
    if out is None:
        out = {word: QQ(1)}
    return out


def ref_pbw_product(a, b):
    out = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            c = ca * cb
            for m, cw in ref_straighten(a.alg, ma + mb).items():
                v = out.get(m, QQ(0)) + c * cw
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
    return out


def ref_mult_square(t, u):
    terms = []
    for (a1, a2), c in t.coeffs.items():
        for (b1, b2), d in u.coeffs.items():
            left = ref_straighten(t.alg, a1 + b1)
            right = ref_straighten(t.alg, a2 + b2)
            terms.append((c * d, {(m1, m2): w1 * w2 for m1, w1 in left.items()
                                  for m2, w2 in right.items()}))
    return _fraction_sum(*terms)


def ref_coproduct_square(x):
    terms = []
    for mono, c in x.coeffs.items():
        n = len(mono)
        for mask in range(1 << n):
            left = tuple(mono[i] for i in range(n) if mask >> i & 1)
            right = tuple(mono[i] for i in range(n) if not mask >> i & 1)
            terms.append((c, {(left, right): 1}))
    return _fraction_sum(*terms)


def ref_pair_two(l1, l2, t):
    total = QQ(0)
    for (v1, v2), c in t.coeffs.items():
        a = l1.coeffs.get(v1)
        if not a:
            continue
        b = l2.coeffs.get(v2)
        if not b:
            continue
        total += c * a * b * _vec_factorial(v1) * _vec_factorial(v2)
    return total


def ref_rho_product(l1, l2, rho):
    out = {}
    for vec, tc in _coproduct_images(rho, l1.order + l2.order).items():
        val = ref_pair_two(l1, l2, tc)
        if val:
            out[vec] = val / _vec_factorial(vec)
    return out


@st.composite
def pbw_elements(draw, alg, square=False):
    mono = st.lists(st.integers(0, alg.dim - 1), max_size=3 - square).map(sorted).map(tuple)
    if square:
        return PBWTensorSquare.make(alg, draw(st.dictionaries(
            st.tuples(mono, mono), COEFFS, max_size=4)))
    return PBWElement.make(alg, draw(st.dictionaries(mono, COEFFS, max_size=4)))


def _check_linear(a, b, q):
    """+, -, negation and scale of a and b against Fraction sums, and zero."""
    ac, bc = a.coeffs, b.coeffs
    _check(a + b, _fraction_sum((1, ac), (1, bc)))
    _check(a - b, _fraction_sum((1, ac), (-1, bc)))
    _check(-a, _fraction_sum((-1, ac)))
    _check(a.scale(q), _fraction_sum((q, ac)))
    assert (a - a).numerators == (1, []) and a.scale(0).numerators == (1, [])
    assert type(a).zero(*a._frame()).numerators == (1, [])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pbw_integer_state_matches_fraction_oracle(data):
    alg = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))]
    x, y = data.draw(pbw_elements(alg)), data.draw(pbw_elements(alg))
    t, u = data.draw(pbw_elements(alg, True)), data.draw(pbw_elements(alg, True))
    q = data.draw(st.one_of(st.just(0), COEFFS))
    _check_linear(x, y, q)
    _check_linear(t, u, q)
    _check(pbw_product(x, y), ref_pbw_product(x, y))
    _check(_mult_square(t, u), ref_mult_square(t, u))
    _check(coproduct_square(x), ref_coproduct_square(x))


@cache
def _rhos():
    """Lifted rhos, one of them rescaled so that its denominators grow."""
    out = []
    for name in ("sl2", "nonabelian2"):
        rho = lift(load_lie_algebra(data_path(name))[1], 4)["rho"]
        out += [rho, rho.scale(QQ(2, 3))]
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_linear_form_integer_state_matches_fraction_oracle(data):
    rho = data.draw(st.sampled_from(_rhos()))
    forms = st.dictionaries(vecs(rho.alg.dim, 2), COEFFS, max_size=4)
    l1, l2 = (LinearForm.make(rho.alg, data.draw(forms)) for _ in range(2))
    q = data.draw(st.one_of(st.just(0), COEFFS))
    _check_linear(l1, l2, q)
    _check(rho_product(l1, l2, rho), ref_rho_product(l1, l2, rho))
