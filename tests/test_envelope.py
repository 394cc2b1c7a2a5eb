"""PBW envelopes: straightening, centers, dual brackets, the co-Poisson
cobracket, and its bracket-composed derivation."""
import itertools
import random

import pytest

from starlift import (
    FormalSeriesTensor,
    center,
    copoisson_delta,
    derivation_D,
    dual_bracket,
    invariants_s_dual,
    pbw_commutator,
    pbw_product,
    poisson_bracket,
)
from starlift._rat import QQ
from starlift.envelope import (
    PBWElement,
    PBWTensorSquare,
    _mult_square,
    coproduct_square,
    pbw_basis,
)
from starlift.errors import AlgebraMismatch, IndexOutOfRange, UnsortedMonomial

from conftest import dense_c
from test_qt import QT_STRUCTURES


def gen(alg, i):
    return PBWElement.generator(alg, i)


def rand_elt(alg, maxdeg, rng):
    coeffs = {}
    for mono in pbw_basis(alg.dim, maxdeg):
        if rng.random() < 0.3:
            coeffs[mono] = QQ(rng.randint(-5, 5), rng.randint(1, 4))
    return PBWElement.make(alg, coeffs)


def test_make_rejects_bad_monomials(sl2):
    alg, _ = sl2
    with pytest.raises(UnsortedMonomial):
        PBWElement.make(alg, {(2, 0): QQ(1)})
    with pytest.raises(IndexOutOfRange):
        PBWElement.make(alg, {(0, 3): QQ(1)})
    with pytest.raises(IndexOutOfRange):
        PBWElement.make(alg, {(-1,): QQ(1)})


def test_straightening_ef(sl2):
    alg, _ = sl2
    e, h, f = (gen(alg, i) for i in range(3))
    assert pbw_commutator(e, f) == h
    # f e = e f - h after reordering
    assert pbw_product(f, e).coeffs == {(0, 2): QQ(1), (1,): QQ(-1)}


def test_product_associative(sl2):
    alg, _ = sl2
    rng = random.Random(7)
    for _ in range(5):
        a, b, c = (rand_elt(alg, 2, rng) for _ in range(3))
        assert pbw_product(pbw_product(a, b), c) == pbw_product(a, pbw_product(b, c))


def test_filtration_behavior(sl2):
    alg, _ = sl2
    e, h, f = (gen(alg, i) for i in range(3))
    p = pbw_product(e, f)
    assert p.filtration == 2
    assert pbw_commutator(e, f).filtration == 1
    assert PBWElement.one(alg).filtration == 0
    assert PBWElement.zero(alg).filtration == 0


def test_top_symbol_multiplicative(sl2):
    alg, _ = sl2
    f, e = gen(alg, 2), gen(alg, 0)
    p = pbw_product(f, e)
    assert p.top_symbol() == {(1, 0, 1): QQ(1)}


def test_mismatched_algebras_rejected(sl2, nonabelian2):
    alg, _ = sl2
    other, _ = nonabelian2
    with pytest.raises(AlgebraMismatch):
        pbw_product(gen(alg, 0), gen(other, 0))


def test_center_sl2_frozen(sl2):
    alg, _ = sl2
    cen = center(alg, 4)
    assert sorted(z.filtration for z in cen) == [0, 2, 4]
    c2 = next(z for z in cen if z.filtration == 2)
    assert c2.coeffs == {(0, 2): QQ(4), (1,): QQ(-2), (1, 1): QQ(1)}
    for z in cen:
        for i in range(alg.dim):
            assert pbw_commutator(z, gen(alg, i)).is_zero()


def test_center_square_is_central(sl2):
    alg, _ = sl2
    c2 = next(z for z in center(alg, 4) if z.filtration == 2)
    sq = pbw_product(c2, c2)
    for i in range(alg.dim):
        assert pbw_commutator(sq, gen(alg, i)).is_zero()


def test_center_abelian_is_everything(abelian3):
    alg, _ = abelian3
    assert len(center(alg, 2)) == 10  # 1 + 3 + 6


def test_invariants_s_dual_frozen(sl2):
    alg, _ = sl2
    inv = invariants_s_dual(alg, 4)
    dims = [0] * 5
    for l in inv:
        dims[l.order] += 1
    assert dims == [1, 0, 1, 0, 1]
    by_order = {l.order: l for l in inv}
    assert by_order[2].coeffs == {(0, 2, 0): QQ(1), (1, 0, 1): QQ(1)}
    assert by_order[4].coeffs == {(0, 4, 0): QQ(1), (1, 2, 1): QQ(2), (2, 0, 2): QQ(1)}


def test_dual_bracket_sl2_frozen(sl2):
    alg, r = sl2
    dual = dual_bracket(r)
    assert dual.dim == 3
    expected = {
        (0, 1): {0: QQ(1, 2)},
        (1, 0): {0: QQ(-1, 2)},
        (1, 2): {2: QQ(-1, 2)},
        (2, 1): {2: QQ(1, 2)},
    }
    c = dense_c(dual)
    for i in range(3):
        for j in range(3):
            got = {k: v for k, v in enumerate(c[i][j]) if v}
            assert got == expected.get((i, j), {})


def test_dual_bracket_abelian_is_zero(abelian3):
    alg, r = abelian3
    dual = dual_bracket(r)
    assert dual.is_abelian


def test_dual_bracket_nonabelian2(nonabelian2):
    alg, r = nonabelian2
    dual = dual_bracket(r)
    dual.validate()
    assert not dual.is_abelian


def test_coproduct_square_of_power(sl2):
    alg, _ = sl2
    e = gen(alg, 0)
    sq = pbw_product(e, e)
    d = coproduct_square(sq)
    assert d.coeffs == {
        ((), (0, 0)): QQ(1),
        ((0,), (0,)): QQ(2),
        ((0, 0), ()): QQ(1),
    }


def test_copoisson_generators_frozen(sl2):
    alg, r = sl2
    dual = dual_bracket(r)
    pins = {
        0: {((0,), (1,)): QQ(-2), ((1,), (0,)): QQ(2)},
        1: {((0,), (2,)): QQ(1), ((2,), (0,)): QQ(-1)},
        2: {((1,), (2,)): QQ(-2), ((2,), (1,)): QQ(2)},
    }
    for a, want in pins.items():
        d = copoisson_delta(gen(dual, a), alg)
        assert {k: v for k, v in d.coeffs.items() if v} == want


def test_copoisson_coleibniz_through_straightening(sl2):
    alg, r = sl2
    dual = dual_bracket(r)
    rng = random.Random(23)
    for _ in range(4):
        a = rand_elt(dual, 2, rng)
        b = rand_elt(dual, 2, rng)
        lhs = copoisson_delta(pbw_product(a, b), alg)
        rhs = _mult_square(copoisson_delta(a, alg), coproduct_square(b)) + \
            _mult_square(coproduct_square(a), copoisson_delta(b, alg))
        assert lhs == rhs


def test_derivation_d_generators_frozen(sl2):
    alg, r = sl2
    dual = dual_bracket(r)
    imgs = {
        0: {(0,): QQ(-2)},
        1: {},
        2: {(2,): QQ(2)},
    }
    for a, want in imgs.items():
        D = derivation_D(gen(dual, a), alg)
        assert D.coeffs == want


# sl2-qt with its bracket times 2/3 and -5/7 has bracket denominators Dc = 3 and 7
@pytest.mark.parametrize("name", ["sl2", "sl2-qt*2/3", "sl2-qt*-5/7"])
def test_derivation_d_leibniz(name, sl2):
    alg, r = sl2 if name == "sl2" else (QT_STRUCTURES[name].g, QT_STRUCTURES[name].r)
    dual = dual_bracket(r)
    rng = random.Random(29)
    for _ in range(4):
        a = rand_elt(dual, 2, rng)
        b = rand_elt(dual, 2, rng)
        lhs = derivation_D(pbw_product(a, b), alg)
        rhs = pbw_product(derivation_D(a, alg), b) + pbw_product(a, derivation_D(b, alg))
        assert lhs == rhs


def _tensor_apply_d(t: PBWTensorSquare, alg) -> PBWTensorSquare:
    """(D (x) id + id (x) D) applied to a tensor square."""
    out = PBWTensorSquare.zero(t.alg)
    for (m1, m2), c in t.coeffs.items():
        dl = derivation_D(PBWElement.make(t.alg, {m1: QQ(1)}), alg)
        out = out + PBWTensorSquare.make(t.alg,
                                         {(mono, m2): c * v for mono, v in dl.coeffs.items()})
        dr = derivation_D(PBWElement.make(t.alg, {m2: QQ(1)}), alg)
        out = out + PBWTensorSquare.make(t.alg,
                                         {(m1, mono): c * v for mono, v in dr.coeffs.items()})
    return out


def test_derivation_d_is_coderivation(sl2):
    alg, r = sl2
    dual = dual_bracket(r)
    rng = random.Random(31)
    for _ in range(3):
        x = rand_elt(dual, 3, rng)
        lhs = coproduct_square(derivation_D(x, alg))
        rhs = _tensor_apply_d(coproduct_square(x), alg)
        assert lhs == rhs


def test_derivation_d_vanishes_on_abelian(abelian3):
    alg, r = abelian3
    dual = dual_bracket(r)
    for mono in pbw_basis(3, 3):
        x = PBWElement.make(dual, {mono: QQ(1)})
        assert derivation_D(x, alg).is_zero()


def test_invariants_poisson_commute_under_dual_bracket(sl2):
    alg, r = sl2
    dual = dual_bracket(r)
    inv = invariants_s_dual(alg, 4)
    n = 8
    for f, g in itertools.combinations(inv, 2):
        ff = FormalSeriesTensor.make(dual, 1, n, {(v,): c for v, c in f.coeffs.items()})
        gg = FormalSeriesTensor.make(dual, 1, n, {(v,): c for v, c in g.coeffs.items()})
        assert poisson_bracket(ff, gg).is_zero()
