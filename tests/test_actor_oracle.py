"""The g-invariant kernels (center, invariants_s_dual, invariant_basis,
is_invariant), which act on weight-zero monomials by a Lie-generating set of
actors, against the versions that act by every basis element: equal bases,
listed in the same order, on algebras with and without diagonal basis
elements and on unimodular basis changes of sl2."""
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ as SQQ
from sympy.polys.matrices import DomainMatrix

from starlift import (
    FormalSeriesTensor,
    LieAlgebraSpec,
    center,
    g_action,
    invariants_s_dual,
    is_invariant,
    load_lie_algebra,
)
from starlift import linsolve
from starlift._rat import QQ
from starlift.cohochschild import invariant_basis, monomials
from starlift.duality import LinearForm
from starlift.envelope import PBWElement, coadjoint_action, pbw_basis, pbw_commutator

from conftest import data_path, dense_c, from_cube, rational_rows, slot_positive_keys

# ---- reference oracles: the all-generator kernels, kept verbatim ------------


def ref_center(alg, maxdeg):
    basis = pbw_basis(alg.dim, maxdeg)
    gens = [PBWElement.generator(alg, i) for i in range(alg.dim)]
    images = []
    for mono in basis:
        z = PBWElement.make(alg, {mono: QQ(1)})
        col = {}
        for i, xi in enumerate(gens):
            for m, c in pbw_commutator(z, xi).coeffs.items():
                col[(i, m)] = c
        images.append(col)
    out = []
    for vec in linsolve.kernel_of(dict(enumerate(images))):
        out.append(PBWElement.make(alg, {basis[j]: c for j, c in vec.items()}))
    return out


def ref_invariants_s_dual(alg, maxdeg):
    out = []
    for d in range(maxdeg + 1):
        monos = monomials(alg.dim, d)
        images = []
        for mono in monos:
            col = {}
            for i in range(alg.dim):
                for m, c in coadjoint_action(alg, i, {mono: QQ(1)}).items():
                    col[(i, m)] = c
            images.append(col)
        for vec in linsolve.kernel_of(dict(enumerate(images))):
            out.append(LinearForm.make(alg, {monos[j]: c for j, c in vec.items()}))
    return out


def ref_diagonal_actions(alg):
    diag = {}
    others = []
    for i in range(alg.dim):
        row = rational_rows(alg).get(i, {})
        lam = [QQ(0)] * alg.dim
        ok = True
        for j, ent in row.items():
            if len(ent) == 1 and ent[0][0] == j:
                lam[j] = ent[0][1]
            else:
                ok = False
                break
        if ok:
            diag[i] = lam
        else:
            others.append(i)
    return diag, others


def ref_invariant_basis(alg, k, N):
    keys = slot_positive_keys(alg.dim, k, N)
    diag, others = ref_diagonal_actions(alg)

    kept = []
    for key in keys:
        ok = True
        for lam in diag.values():
            w = QQ(0)
            for vec in key:
                for j, a in enumerate(vec):
                    if a:
                        w += a * lam[j]
            if w:
                ok = False
                break
        if ok:
            kept.append(key)

    images = []
    for key in kept:
        mono = FormalSeriesTensor.make(alg, len(key), N, {key: QQ(1)})
        col = {}
        for i in others:
            for rkey, v in g_action(i, mono).coeffs.items():
                col[(i, rkey)] = v
        images.append(col)

    out = []
    for vec in linsolve.kernel_of(dict(enumerate(images))):
        items = {kept[j]: v for j, v in vec.items()}
        out.append(FormalSeriesTensor.make(alg, k, N, items))
    return out


def ref_is_invariant(f):
    return all(g_action(i, f).is_zero() for i in range(f.alg.dim))


# ---- algebras -----------------------------------------------------------------


def _rebased(alg, P, Pinv):
    """alg in the basis y_a = sum_i P[a][i] x_i: c'_ab^c = P_ai P_bj c_ij^k Pinv_kc."""
    d = alg.dim
    c = dense_c(alg)
    new = tuple(tuple(tuple(
        sum((P[a][i] * P[b][j] * c[i][j][k] * Pinv[k][e]
             for i, j, k in itertools.product(range(d), repeat=3)), QQ(0))
        for e in range(d)) for b in range(d)) for a in range(d))
    return from_cube(d, (f"y{a}" for a in range(d)), new).validate()


def _rescaled(alg, q):
    brackets = tuple((key, v * q) for key, v in alg.brackets)
    return LieAlgebraSpec(alg.dim, alg.basis_names, brackets).validate()


_SL2 = load_lie_algebra(data_path("sl2"))[0]  # basis e, h, f
# h, e + f, e - f: no basis element acts diagonally
_HEF = ((0, 1, 0), (1, 0, 1), (1, 0, -1))
_HEF_INV = ((0, QQ(1, 2), QQ(1, 2)), (1, 0, 0), (0, QQ(1, 2), QQ(-1, 2)))
ALGEBRAS = {
    "sl2": _SL2,
    "sl3": load_lie_algebra(data_path("sl3"))[0],
    "nonabelian2": load_lie_algebra(data_path("nonabelian2"))[0],
    "abelian3": load_lie_algebra(data_path("abelian3"))[0],
    "sl2*2/3": _rescaled(_SL2, QQ(2, 3)),
    "sl2(h,e+f,e-f)": _rebased(_SL2, _HEF, _HEF_INV),
}
# sl3's kernels grow fast, so its rung is lower
SIZES = {name: (3 if name == "sl3" else 4) for name in ALGEBRAS}


@st.composite
def unimodular(draw, d=3):
    """(P, P^-1) from up to four shears row_j += t * row_i."""
    P = [[QQ(int(a == b)) for b in range(d)] for a in range(d)]
    Pinv = [row[:] for row in P]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.permutations(range(d)))[:2]
        t = draw(st.sampled_from((-2, -1, 1, 2)))
        for col in range(d):
            P[j][col] += t * P[i][col]
        for row in Pinv:
            row[i] -= t * row[j]
    return P, Pinv


def _same_list(got, want):
    """Equal vectors in the same list order. The key order inside a vector
    follows the order the elimination met its pivots, which depends on the
    rows, and no result reads it."""
    assert [x.coeffs for x in got] == [x.coeffs for x in want]


def _check_kernels(alg, n):
    _same_list(center(alg, n), ref_center(alg, n))
    _same_list(invariants_s_dual(alg, n), ref_invariants_s_dual(alg, n))
    for k in (1, 2, 3):  # k = 3 splits into several slot-degree compositions
        want = ref_invariant_basis(alg, k, n)
        _same_list(invariant_basis(alg, k, n), want)
        for f in want:
            assert is_invariant(f) and ref_is_invariant(f)


def _check_actors(alg):
    """The diagonal indices are those whose ad is diagonal, their integer
    weights are Dc times the eigenvalues, nonzero ones only, in index order,
    the other indices act non-diagonally, and the actors generate g (rank
    by sympy)."""
    diagonal_indices, gens = alg.actors
    weights = alg._integer_weights
    d = alg.dim
    c = dense_c(alg)
    Dc = alg.integer_rows[0]
    for i in range(d):
        diagonal = all(not c[i][j][k] for j in range(d) for k in range(d) if k != j)
        assert (i in diagonal_indices) == (i in weights) == diagonal
        if diagonal:
            assert weights[i] == tuple((j, Dc * c[i][j][j]) for j in range(d) if c[i][j][j])
    assert diagonal_indices == tuple(weights) == tuple(sorted(weights))
    assert set(gens).isdisjoint(weights) and list(gens) == sorted(gens)

    def rank(vectors):
        return DomainMatrix([[SQQ(v.numerator, v.denominator) for v in u] for u in vectors],
                            (len(vectors), d), SQQ).rank()

    span = [[QQ(int(i == j)) for j in range(d)] for i in [*diagonal_indices, *gens]]
    while True:  # add every bracket of two span vectors until the rank stops growing
        new = [[sum((u[i] * v[j] * c[i][j][k] for i in range(d) for j in range(d)), QQ(0))
                for k in range(d)] for u, v in itertools.combinations(span, 2)]
        if not new or rank(span + new) == rank(span):
            break
        span = span + new
    assert rank(span) == d


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_kernels_match_all_generator_oracle(name):
    alg = ALGEBRAS[name]
    _check_actors(alg)
    _check_kernels(alg, SIZES[name])


def test_actor_split_of_the_shipped_algebras():
    assert ALGEBRAS["sl2"].actors == ((1,), (0, 2))  # h; e and f
    assert ALGEBRAS["sl2"]._integer_weights == {1: ((0, 2), (2, -2))}  # Dc = 1
    diagonal, gens = ALGEBRAS["sl3"].actors
    assert diagonal == (6, 7) and gens == (0, 1, 2, 4)  # H1, H2; E12, E13, E21, E31
    assert ALGEBRAS["sl2(h,e+f,e-f)"].actors == ((), (0, 1))
    assert ALGEBRAS["sl2(h,e+f,e-f)"]._integer_weights == {}
    assert ALGEBRAS["abelian3"].actors == ((0, 1, 2), ())
    assert ALGEBRAS["abelian3"]._integer_weights == {i: () for i in range(3)}
    assert ALGEBRAS["nonabelian2"].actors[1] == (1,)


def test_sl3_center_keeps_weight_zero_columns():
    alg = ALGEBRAS["sl3"]
    kept = [m for m in pbw_basis(8, 3) if alg.weight_zero(tuple(map(m.count, range(8))))]
    assert (len(kept), len(pbw_basis(8, 3))) == (21, 165)


@settings(max_examples=30, deadline=None)
@given(unimodular())
def test_unimodular_rebasings_of_sl2(pair):
    P, Pinv = pair
    alg = _rebased(_SL2, P, Pinv)
    _check_actors(alg)
    _check_kernels(alg, 3)


@st.composite
def near_invariants(draw):
    """A 2-slot series of degree <= 3: up to three slot-positive monomials
    plus a combination of the invariant basis."""
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    inv = invariant_basis(alg, 2, 3)
    keys = slot_positive_keys(alg.dim, 2, 3)
    coef = st.integers(-2, 2)
    picked = draw(st.lists(st.sampled_from(keys), max_size=3))
    items = {key: QQ(draw(coef)) for key in picked}
    f = FormalSeriesTensor.make(alg, 2, 3, items)
    for v in inv:
        f = f + v.scale(draw(coef))
    return f


# On nonabelian2 ([h, e] = e), e (x) e^2 is killed by e, its one gens actor,
# and h scales it by 3: only the weight test finds it not invariant.
@settings(max_examples=60, deadline=None)
@given(near_invariants())
@example(FormalSeriesTensor.make(ALGEBRAS["nonabelian2"], 2, 3, {((0, 1), (0, 2)): 1}))
def test_is_invariant_matches_oracle(f):
    assert is_invariant(f) == ref_is_invariant(f)
