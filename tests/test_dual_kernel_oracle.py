"""The bracket expansions on the dual side (coadjoint_action, dual_bracket,
the cobracket of a dual generator, the bracket contraction mu), which read
g's integer structure constants, against the loops over the rational
bracket table they replaced: equal values, every coefficient an exact
rational, on the shipped algebras and on each with its structure constants
scaled by 2/3 and by -5/7, so that the integer table has a denominator
Dc > 1."""
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starlift import FormalSeriesTensor, LieAlgebraSpec, RMatrix, dual_bracket, load_lie_algebra
from starlift._rat import ONE, QQ, ZERO
from starlift.core import _unit
from starlift.envelope import PBWTensorSquare, _delta_generator, coadjoint_action
from starlift.errors import StarliftError
from starlift.quasitriangular import _bracket_contraction, mu_of_rprime, qt_validate

from conftest import data_path, dense_r, from_cube, rational_rows, sparse_r
from test_kernel_oracle import COEFFS, _rescaled, vecs

# ---- reference oracles: the rational-table loops, kept verbatim -------------


def ref_coadjoint_action(alg, i, form):
    gen_img = [dict() for _ in range(alg.dim)]
    for m, targets in rational_rows(alg).get(i, {}).items():
        for a, c in targets:
            gen_img[a][m] = gen_img[a].get(m, ZERO) - c
    out: dict = {}
    for vec, coef in form.items():
        for a in range(alg.dim):
            if not vec[a]:
                continue
            for m, c in gen_img[a].items():
                nv = list(vec)
                nv[a] -= 1
                nv[m] += 1
                k = tuple(nv)
                v = out.get(k, ZERO) + coef * vec[a] * c
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
    return out


def ref_dual_bracket(r):
    alg = r.alg
    dim = alg.dim
    ent = dense_r(r.entries, dim)

    def ad_r(b, a):  # ad*(R(xi_b)) xi_a over the dual basis, R(xi_b) = sum_k r_{kb} x_k
        out = [ZERO] * dim
        for k in range(dim):
            if ent[k][b]:
                for vec, v in ref_coadjoint_action(alg, k, {_unit(dim, a): ONE}).items():
                    out[vec.index(1)] += ent[k][b] * v
        return out

    c = tuple(tuple(tuple(map(sub, ad_r(b, a), ad_r(a, b))) for b in range(dim))
              for a in range(dim))
    return from_cube(dim, (n + "*" for n in alg.basis_names), c).validate()


def ref_delta_generator(g, dual, a):
    Dc, rows = g.integer_rows
    out = {}
    for i, targets in rows.items():
        for j, pairs in targets.items():
            if i >= j:
                continue
            for tgt, c in pairs:
                if tgt == a:
                    out[(i,), (j,)] = c
                    out[(j,), (i,)] = -c
    return PBWTensorSquare(dual, out, Dc)


def ref_bracket_contraction(f):
    g = f.alg
    out = [ZERO] * g.dim
    for (a, b), c in f.coeffs.items():
        for m, w in rational_rows(g).get(a.index(1), {}).get(b.index(1), ()):
            out[m] += c * w
    return tuple(out)


# ---- algebras ----------------------------------------------------------------

INPUTS = ("abelian3", "nonabelian2", "sl2", "sl2-qt", "sl3")
SCALES = (QQ(1), QQ(2, 3), QQ(-5, 7))
ALGEBRAS = {}
for _name in INPUTS:
    _alg, _r = load_lie_algebra(data_path(_name))
    for _q in SCALES:
        ALGEBRAS[f"{_name}*{_q}"] = (_alg if _q == 1 else _rescaled(_alg, _q), _r)


def _exact(values):
    """Every value is an exact rational: not a float, not a bare int."""
    for v in values:
        assert isinstance(v, QQ) and not isinstance(v, (float, int)), (v, type(v))


def test_scaled_algebras_have_a_denominator():
    for q in SCALES:
        assert ALGEBRAS[f"sl2*{q}"][0].integer_rows[0] == q.denominator


@st.composite
def algebras(draw):
    return ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]


@st.composite
def antisymmetric(draw, dim):
    ent = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            v = QQ(draw(st.one_of(st.just(0), COEFFS)))
            ent[i][j], ent[j][i] = v, -v
    return sparse_r(ent)


def _unvalidated(fn, r):
    """fn(r)'s structure constants, before the Jacobi check a random r can fail,
    and that check's outcome."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LieAlgebraSpec, "validate", lambda self: self)
        spec = fn(r)
    try:
        spec.validate()
        outcome = None
    except StarliftError as exc:
        outcome = (type(exc), str(exc))
    return spec, outcome


# ---- coadjoint action ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coadjoint_action_matches_rational_loops(data):
    alg, _ = data.draw(algebras())
    i = data.draw(st.integers(0, alg.dim - 1))
    form = data.draw(st.dictionaries(vecs(alg.dim, 3), COEFFS, min_size=1, max_size=5))
    got = coadjoint_action(alg, i, form)
    assert got == ref_coadjoint_action(alg, i, form)
    _exact(got.values())


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_coadjoint_action_of_int_monomials_is_rational(name):
    """invariants_s_dual and dual_bracket pass one-term forms; an int
    coefficient must still give rationals, never floats."""
    alg, _ = ALGEBRAS[name]
    for i in range(alg.dim):
        for a in range(alg.dim):
            for form in ({_unit(alg.dim, a): 1}, {_unit(alg.dim, a): ONE},
                         {tuple(2 if t in (a, i) else 0 for t in range(alg.dim)): -3}):
                got = coadjoint_action(alg, i, form)
                assert got == ref_coadjoint_action(alg, i, form)
                _exact(got.values())


# ---- dual bracket -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_dual_bracket_of_shipped_r_matches_rational_loops(name):
    """The shipped r (for sl2-qt, the antisymmetric half of r')."""
    alg, r = ALGEBRAS[name]
    d = alg.dim
    rows = dense_r(r.entries, d)
    rmat = RMatrix(alg, sparse_r(tuple((rows[i][j] - rows[j][i]) / 2 for j in range(d))
                                 for i in range(d)))
    got, outcome = _unvalidated(dual_bracket, rmat)
    want, want_outcome = _unvalidated(ref_dual_bracket, rmat)
    assert got == want and outcome == want_outcome
    _exact(v for _, v in got.brackets)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dual_bracket_of_random_r_matches_rational_loops(data):
    """Random antisymmetric r, whose dual bracket need not satisfy Jacobi:
    equal structure constants and the same Jacobi outcome."""
    alg, _ = data.draw(algebras())
    rmat = RMatrix(alg, data.draw(antisymmetric(alg.dim)))
    got, outcome = _unvalidated(dual_bracket, rmat)
    want, want_outcome = _unvalidated(ref_dual_bracket, rmat)
    assert got == want and outcome == want_outcome
    _exact(v for _, v in got.brackets)


# ---- cobracket of a dual generator ------------------------------------------


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_delta_generator_matches_rational_loops(name):
    alg, _ = ALGEBRAS[name]
    for a in range(alg.dim):  # the dual algebra only names the space: alg stands in
        got = _delta_generator(alg, alg, a)
        want = ref_delta_generator(alg, alg, a)
        assert got == want
        assert got.coeffs == want.coeffs
        _exact(got.coeffs.values())


# ---- bracket contraction ------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bracket_contraction_matches_rational_loops(data):
    alg, _ = data.draw(algebras())
    units = [_unit(alg.dim, i) for i in range(alg.dim)]
    pairs = st.tuples(st.sampled_from(units), st.sampled_from(units))
    items = data.draw(st.dictionaries(pairs, COEFFS, max_size=6))
    f = FormalSeriesTensor.make(alg, 2, 2, items)
    got = _bracket_contraction(f)
    assert got == ref_bracket_contraction(f)
    _exact(got)


@pytest.mark.parametrize("q", SCALES, ids=str)
def test_mu_of_rprime_matches_rational_loops(q):
    alg, rp = ALGEBRAS[f"sl2-qt*{q}"]
    qt = qt_validate(alg, dense_r(rp.entries, alg.dim))
    got = mu_of_rprime(qt)
    assert got == ref_bracket_contraction(qt.rprime.to_series(2))
    _exact(got)
