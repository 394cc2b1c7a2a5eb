"""The BCH star group on series of augmentation order >= 2.

The derived word-coefficient list is cross-checked against an independent
oracle: the nilpotent-matrix logarithm log(exp(A) exp(B)) computed with
exact Fraction arithmetic. Strictly upper triangular seeds kill every
bracket word longer than n-1 letters, so the check is an exact identity
for each length up to n - 1 = 8.
"""
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from starlift import (FormalSeriesTensor, LieAlgebraSpec, load_lie_algebra, negate, star,
                      star_conjugate)
from starlift._rat import QQ
from starlift.errors import TruncationMismatch
from starlift.star import _check_star_pair, _nested, assoc_log_exp_exp, bch_terms

from conftest import data_path


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _mat_log_exp_exp(a, b, n):
    """log(exp(a) exp(b)) for nilpotent n x n rational matrices."""
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def expm(m):
        out = [row[:] for row in ident]
        term = [row[:] for row in ident]
        for k in range(1, n):
            term = _mat_mul(term, m)
            term = [[v / k for v in row] for row in term]
            out = [[out[i][j] + term[i][j] for j in range(n)] for i in range(n)]
        return out

    prod = _mat_mul(expm(a), expm(b))
    nil = [[prod[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    out = [[Fraction(0)] * n for _ in range(n)]
    term = [row[:] for row in ident]
    for k in range(1, n):
        term = _mat_mul(term, nil)
        out = [[out[i][j] + term[i][j] * Fraction((-1) ** (k + 1), k) for j in range(n)]
               for i in range(n)]
    return out


def _eval_word(word, a, b):
    """Right-nested commutator [w0,[w1,[...,[wk-1,wk]]]] on matrices."""
    cur = a if word[-1] == 0 else b
    for s in reversed(word[:-1]):
        m = a if s == 0 else b
        n = len(m)
        cur = [[sum(m[i][k] * cur[k][j] - cur[i][k] * m[k][j] for k in range(n))
                for j in range(n)] for i in range(n)]
    return cur


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9])
def test_bch_terms_match_matrix_log(n):
    a = [[Fraction(0)] * n for _ in range(n)]
    b = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        if i % 2 == 0:
            a[i][i + 1] = Fraction(2, 3)
        else:
            b[i][i + 1] = Fraction(3, 5)
    acc = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    for coeff, word in bch_terms(n - 1):
        m = _eval_word(word, a, b)
        c = Fraction(coeff.numerator, coeff.denominator)
        acc = [[acc[i][j] + c * m[i][j] for j in range(n)] for i in range(n)]
    assert acc == _mat_log_exp_exp(a, b, n)


def _free_bracket(a, b):
    """[a, b] = ab - ba in Q<x,y>, elements as word -> coefficient."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
            out[wb + wa] = out.get(wb + wa, 0) - ca * cb
    return {w: c for w, c in out.items() if c}


def _free_sum(terms):
    """sum of coefficient * right-nested word, expanded in Q<x,y>."""
    out = {}
    for coeff, word in terms:
        elem = {word[-1:]: 1}
        for s in reversed(word[:-1]):
            elem = _free_bracket({(s,): 1}, elem)
        for w, c in elem.items():
            out[w] = out.get(w, 0) + coeff * c
    return {w: c for w, c in out.items() if c}


def test_low_order_coefficients():
    # 1/2 [x,y] + 1/12 [x,[x,y]] + 1/12 [y,[y,x]], whichever words the list uses
    expected = [(QQ(1, 2), (0, 1)), (QQ(1, 12), (0, 0, 1)), (QQ(1, 12), (1, 1, 0))]
    assert _free_sum(bch_terms(3)) == _free_sum(expected)


def test_bch_word_list_shape():
    for max_len, brackets in ((4, 4), (7, 39), (8, 56)):
        terms = bch_terms(max_len)
        words = [w for _, w in terms]
        assert len(set(words)) == len(words)
        assert all(c for c, _ in terms)
        assert all(w[-1] != w[-2] for w in words)
        suffixes = {w[i:] for w in words for i in range(len(w) - 1)}
        assert len(suffixes) == brackets


def test_assoc_log_low_words():
    log = assoc_log_exp_exp(2)
    assert log[(0,)] == QQ(1)
    assert log[(1,)] == QQ(1)
    assert log[(0, 1)] == QQ(1, 2)
    assert log[(1, 0)] == QQ(-1, 2)
    assert (0, 0) not in log and (1, 1) not in log


@pytest.fixture(scope="module")
def sl2triple():
    alg, _ = load_lie_algebra(
        {
            "dim": 3,
            "basis": ["e", "h", "f"],
            "brackets": [[1, 0, [[0, "2"]]], [1, 2, [[2, "-2"]]], [0, 2, [[1, "1"]]]],
        }
    )
    N = 7
    f = FormalSeriesTensor.make(
        alg, 1, N, {((2, 0, 0),): QQ(1), ((0, 1, 1),): QQ(1, 3)}
    )
    g = FormalSeriesTensor.make(
        alg, 1, N, {((0, 0, 2),): QQ(1), ((1, 1, 0),): QQ(-1, 2)}
    )
    h = FormalSeriesTensor.make(
        alg, 1, N, {((0, 2, 0),): QQ(2), ((1, 0, 1),): QQ(1, 5)}
    )
    return f, g, h


def test_star_group_laws(sl2triple):
    f, g, h = sl2triple
    zero = FormalSeriesTensor.zero(f.alg, 1, f.N)
    assert star(zero, f) == f
    assert star(f, zero) == f
    assert star(negate(f), f).is_zero()
    assert star(f, negate(f)).is_zero()


def test_star_associative(sl2triple):
    f, g, h = sl2triple
    assert star(star(f, g), h) == star(f, star(g, h))


def test_star_leading_terms(sl2triple):
    f, g, _ = sl2triple
    s = star(f, g)
    from starlift import poisson_bracket

    assert s.homogeneous_part(2) == (f + g).homogeneous_part(2)
    assert s.homogeneous_part(3) == poisson_bracket(f, g).homogeneous_part(3).scale(QQ(1, 2))


def test_star_conjugate_is_group_conjugation(sl2triple):
    f, g, h = sl2triple
    lhs = star_conjugate(h, star(f, g))
    rhs = star(star_conjugate(h, f), star_conjugate(h, g))
    assert lhs == rhs
    assert star_conjugate(h, f) == star(star(h, f), negate(h))


def _series(alg, N):
    """Small 1-slot series with 1-3 terms of total degree 2-3."""
    vec = st.lists(st.integers(0, alg.dim - 1), min_size=2, max_size=3).map(
        lambda idx: (tuple(idx.count(i) for i in range(alg.dim)),))
    coeff = st.builds(QQ, st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3)))
    return st.dictionaries(vec, coeff, min_size=1, max_size=3).map(
        lambda items: FormalSeriesTensor.make(alg, 1, N, items))


def _check_group_laws(f, g, h):
    zero = FormalSeriesTensor.zero(f.alg, 1, f.N)
    assert star(zero, f) == f == star(f, zero)
    assert star(f, negate(f)).is_zero() and star(negate(f), f).is_zero()
    assert star(star(f, g), h) == star(f, star(g, h))


SL3, _ = load_lie_algebra(data_path("sl3"))
SL2, _ = load_lie_algebra(data_path("sl2"))


@settings(max_examples=20, deadline=None)
@given(_series(SL3, 6), _series(SL3, 6), _series(SL3, 6))
def test_star_group_laws_sl3(f, g, h):
    _check_group_laws(f, g, h)


# N = 10 needs words of up to 9 letters. Shrinking is off: at about 0.4 s
# per example it would hold a failure back for minutes.
@settings(max_examples=8, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(_series(SL2, 10), _series(SL2, 10), _series(SL2, 10))
def test_star_group_laws_sl2_deep(f, g, h):
    _check_group_laws(f, g, h)


# ---- reference oracle: the per-word Fraction star, kept verbatim -------------


def ref_star(f, g):
    _check_star_pair(f, g)
    result = f + g
    cache = {}
    for coeff, word in bch_terms(max(f.N - 1, 1)):
        term = _nested(word, f, g, cache)
        if not term.is_zero():
            result = result + term.scale(coeff)
    return result


def _rescaled(alg, q):
    """The same bracket times q: non-integer structure constants for q = 2/3."""
    brackets = tuple((key, v * q) for key, v in alg.brackets)
    return LieAlgebraSpec(alg.dim, alg.basis_names, brackets).validate()


ORACLE_ALGEBRAS = {"sl2": SL2, "sl3": SL3, "sl2*2/3": _rescaled(SL2, QQ(2, 3))}


@st.composite
def _oracle_pair(draw):
    alg = ORACLE_ALGEBRAS[draw(st.sampled_from(sorted(ORACLE_ALGEBRAS)))]
    N = draw(st.integers(2, 6))
    vec = st.lists(st.integers(0, alg.dim - 1), min_size=2, max_size=min(N, 4)).map(
        lambda idx: (tuple(idx.count(i) for i in range(alg.dim)),))
    coeff = st.builds(QQ, st.integers(-7, 7).filter(bool), st.sampled_from((1, 2, 3, 4, 6, 9)))
    series = st.dictionaries(vec, coeff, min_size=1, max_size=4).map(
        lambda items: FormalSeriesTensor.make(alg, 1, N, items))
    return draw(series), draw(series)


@settings(max_examples=60, deadline=None)
@given(_oracle_pair())
def test_star_matches_per_word_oracle(pair):
    f, g = pair
    got, want = star(f, g), ref_star(f, g)
    assert (got.alg, got.k, got.N) == (want.alg, want.k, want.N)
    assert got.coeffs == want.coeffs


def test_star_rejects_mixed_truncations():
    """At N = 2 no BCH word is summed, so only the operand check catches it."""
    f = FormalSeriesTensor.make(SL2, 1, 2, {((1, 1, 0),): QQ(1)})
    g = FormalSeriesTensor.make(SL2, 1, 3, {((0, 2, 0),): QQ(1)})
    with pytest.raises(TruncationMismatch):
        star(f, g)


# ---- truncation commutes with the group --------------------------------------


# In m^2 a BCH word of L >= 2 letters has degree above each letter's, so the
# degree-<=T part of f * g is the product of the degree-<=T parts.
@settings(max_examples=100, deadline=None)
@given(_oracle_pair())
def test_star_commutes_with_truncation(pair):
    f, g = pair
    full = star(f, g)
    for T in range(2, f.N + 1):
        cut = star(f.truncate(T), g.truncate(T))
        assert cut.N == T
        assert full.truncate(T) == cut
