"""Quasitriangular candidates: validation, the C_s family, the transport
of central elements, and the inner-derivation identity."""
import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ as SQQ
from sympy.polys.matrices import DomainMatrix

from starlift import (
    FormalSeriesTensor,
    QTStructure,
    RMatrix,
    derivation_D,
    c_s_basis,
    c_s_graded_dims,
    c_s_map,
    center,
    check_inner_derivation,
    compare_images,
    cyb,
    load_lie_algebra,
    pbw_commutator,
    pbw_product,
    qt_validate,
    sts_alpha,
    sts_theta,
)
from starlift import envelope, linsolve, quasitriangular
from starlift._rat import QQ, ZERO
from starlift.cli import main
from starlift.envelope import (PBWElement, PBWTensorSquare, _mult_square,
                               copoisson_delta, coproduct_square, pbw_basis)
from starlift.errors import CYBViolation, Degenerate, NotAntisymmetric, NotCentral, TNotInvariant
from starlift.quasitriangular import (_d_tensor_id, alpha_matrix_rank, c_s_coderivation,
                                      mu_of_rprime)

from conftest import data_path, dense_c, dense_r, from_pair, rational_rows, sparse_r
from test_actor_oracle import _rebased, unimodular
from test_kernel_oracle import COEFFS, _rescaled
from test_basis_independence import _rebased_r


@pytest.fixture(scope="module")
def qt(sl2qt):
    g, rp = sl2qt
    return qt_validate(g, rp)


def test_qt_validate_splits_rprime(qt):
    # r' = e(x)f + h(x)h/4 splits into r = (e^f)/2 and t = e(x)f + f(x)e + h(x)h/2
    assert dense_r(qt.r.entries, 3)[0][2] == QQ(1, 2)
    assert dense_r(qt.r.entries, 3)[2][0] == QQ(-1, 2)
    t = {(i, j): v for i, row in enumerate(dense_r(qt.t, 3)) for j, v in enumerate(row) if v}
    assert t == {(0, 2): QQ(1), (2, 0): QQ(1), (1, 1): QQ(1, 2)}
    assert not qt.Z.is_zero()
    assert qt.nondegenerate


def ref_t_bracket_z(alg, t):
    """(1/4)[t^{12}, t^{23}] summed by hand over the basis: the oracle for
    quasitriangular._t_bracket_z."""
    d = alg.dim
    unit = [tuple(int(q == i) for q in range(d)) for i in range(d)]
    items = {}
    for i, j, k, l in itertools.product(range(d), repeat=4):
        if t[i][j] and t[k][l]:
            for m, c in rational_rows(alg).get(j, {}).get(k, ()):
                key = (unit[i], unit[m], unit[l])
                items[key] = items.get(key, QQ(0)) + QQ(1, 4) * t[i][j] * t[k][l] * c
    return FormalSeriesTensor.make(alg, 3, 3, items)


@pytest.mark.parametrize("name", ["abelian3", "nonabelian2", "sl2", "sl2-qt", "sl3"])
def test_t_bracket_z_matches_hand_sum(name):
    """On each shipped input's symmetric part (nonzero only for sl2-qt), and
    on a dense symmetric t, which need not be invariant."""
    alg, r = load_lie_algebra(data_path(name))
    d = alg.dim
    ent = dense_r(r.entries, d)
    sym = tuple(tuple(ent[i][j] + ent[j][i] for j in range(d)) for i in range(d))
    dense = tuple(tuple(QQ(1 + (i * j + i + j) % 5, 1 + (i + j) % 3) for j in range(d))
                  for i in range(d))
    for t in (sym, dense):
        assert quasitriangular._t_bracket_z(alg, sparse_r(t)) == ref_t_bracket_z(alg, t)
    assert quasitriangular._t_bracket_z(alg, sparse_r(dense)).is_zero() == alg.is_abelian


def test_qt_validate_rejects_cyb_violation(sl2qt):
    g, _ = sl2qt
    from starlift.core import RMatrix

    bad = RMatrix(
        g,
        sparse_r(((QQ(0), QQ(0), QQ(1)), (QQ(0), QQ(0), QQ(0)), (QQ(0), QQ(0), QQ(0)))),
        "quasitriangular-candidate",
    )
    with pytest.raises(CYBViolation):
        qt_validate(g, bad)


def test_qt_validate_rejects_noninvariant_t(sl2qt):
    g, _ = sl2qt
    from starlift.core import RMatrix

    # e(x)f + f(x)e alone: t misses the h(x)h/2 completion, not ad-invariant
    bad = RMatrix(
        g,
        sparse_r(((QQ(0), QQ(0), QQ(1, 2)), (QQ(0), QQ(0), QQ(0)), (QQ(1, 2), QQ(0), QQ(0)))),
        "quasitriangular-candidate",
    )
    with pytest.raises((TNotInvariant, CYBViolation)):
        qt_validate(g, bad)


def test_cyb_of_rprime_needs_the_opt_out(sl2qt):
    g, rp = sl2qt
    with pytest.raises(NotAntisymmetric):
        cyb(rp)
    assert cyb(rp, require_antisymmetric=False).is_zero()


def test_dual_is_built_once(qt):
    assert qt.dual is qt.dual
    assert qt.dual.basis_names == ("e*", "h*", "f*")


def test_antisymmetric_r_on_sl2_fails_cyb(sl2):
    g, r = sl2
    with pytest.raises(CYBViolation):
        qt_validate(g, r)


def test_triangular_inputs_validate(abelian3, nonabelian2):
    for g, r in (abelian3, nonabelian2):
        qt = qt_validate(g, r)
        assert qt.Z.is_zero()
        assert not qt.nondegenerate


def test_mu_rprime_is_h(qt):
    assert list(mu_of_rprime(qt)) == [QQ(0), QQ(1), QQ(0)]


def test_inner_derivation_sl2(qt):
    report = check_inner_derivation(qt)
    assert report["passed"]
    by_gen = {w["generator"]: w for w in report["witnesses"]}
    assert by_gen["e"]["mu_delta"] == (QQ(-2), QQ(0), QQ(0))
    assert by_gen["h"]["mu_delta"] == (QQ(0), QQ(0), QQ(0))
    assert by_gen["f"]["mu_delta"] == (QQ(0), QQ(0), QQ(2))
    for w in report["witnesses"]:
        assert w["match"]
        assert w["mu_delta"] == w["minus_ad_mu"]


def test_inner_derivation_trivial_inputs(abelian3, nonabelian2):
    for g, r in (abelian3, nonabelian2):
        assert check_inner_derivation(qt_validate(g, r))["passed"]


def test_inner_derivation_builds_at_most_dim_unit_vectors(monkeypatch):
    """ad(x_k) mu(r') is read back by each key's own index, so the unit
    vectors built are mu's, at most dim of them, not one per pair (k, m)."""
    g, rp = load_lie_algebra({"dim": 60, "r": [[0, 1, "1"], [1, 0, "1"]]})
    qt = qt_validate(g, rp)
    calls = []
    unit = quasitriangular._unit

    def counted(dim, i):
        calls.append(i)
        return unit(dim, i)

    monkeypatch.setattr(quasitriangular, "_unit", counted)
    assert check_inner_derivation(qt)["passed"]
    assert 0 < len(calls) <= g.dim



# ---- the hand-written inner-derivation loops, kept verbatim as the oracle ---

def ref_mu_of_rprime(qt) -> tuple:
    """The bracket contraction sum_ij r'_ij [x_i, x_j] as a coefficient
    vector over the basis of g."""
    g = qt.g
    d = g.dim
    out = [ZERO] * d
    ent = dense_r(qt.rprime.entries, d)
    for i in range(d):
        for j in range(d):
            if not ent[i][j]:
                continue
            for k, c in rational_rows(g).get(i, {}).get(j, ()):
                out[k] += ent[i][j] * c
    return tuple(out)


def ref_cobracket_g(qt, k: int):
    """delta(x_k) = [x_k (x) 1 + 1 (x) x_k, r] as a dict (i, j) -> coeff."""
    g = qt.g
    d = g.dim
    r = dense_r(qt.r.entries, d)
    out: dict = {}

    def put(i, j, v):
        if v:
            out[(i, j)] = out.get((i, j), ZERO) + v
            if not out[(i, j)]:
                del out[(i, j)]

    for a in range(d):
        for b in range(d):
            if not r[a][b]:
                continue
            for m, c in rational_rows(g).get(k, {}).get(a, ()):
                put(m, b, r[a][b] * c)
            for m, c in rational_rows(g).get(k, {}).get(b, ()):
                put(a, m, r[a][b] * c)
    return out


def ref_check_inner_derivation(qt) -> dict:
    """On every generator x of g, compare mu(delta(x)) against -[mu(r'), x].
    Returns a report with per-generator witnesses."""
    g = qt.g
    d = g.dim
    mu_rp = ref_mu_of_rprime(qt)
    witnesses = []
    ok = True
    for k in range(d):
        lhs = [ZERO] * d
        for (i, j), c in ref_cobracket_g(qt, k).items():
            for m, w in rational_rows(g).get(i, {}).get(j, ()):
                lhs[m] += c * w
        rhs = [ZERO] * d
        for a in range(d):
            if not mu_rp[a]:
                continue
            for m, w in rational_rows(g).get(a, {}).get(k, ()):
                rhs[m] -= mu_rp[a] * w
        match = lhs == rhs
        ok = ok and match
        witnesses.append({
            "generator": g.basis_names[k],
            "mu_delta": tuple(lhs),
            "minus_ad_mu": tuple(rhs),
            "match": match,
        })
    return {
        "passed": ok,
        "mu_rprime": mu_rp,
        "witnesses": witnesses,
    }


def _dense_candidate(alg):
    """A QTStructure around a dense r' that is not quasitriangular, so that
    mu(r') and the witnesses are dense. The identity still holds: by Jacobi,
    mu(delta(x)) = [x, mu(r)] for every r, and mu kills the symmetric part."""
    d = alg.dim
    rows = tuple(tuple(QQ(1 + (2 * i + j) % 5, 1 + (i * j) % 3) for j in range(d))
                 for i in range(d))
    r, t = ref_split(rows)
    return QTStructure(alg, RMatrix(alg, sparse_r(rows), "quasitriangular-candidate"),
                       RMatrix(alg, sparse_r(r)), sparse_r(t), FormalSeriesTensor.zero(alg, 3, 3),
                       False)


def ref_split(rows):
    """The dense split of r' (a square matrix) into its antisymmetric half
    (r' - r'^T)/2 and t = r' + r'^T: the oracle for qt_validate's."""
    d = len(rows)
    return (tuple(tuple((rows[i][j] - rows[j][i]) / 2 for j in range(d)) for i in range(d)),
            tuple(tuple(rows[i][j] + rows[j][i] for j in range(d)) for i in range(d)))


# sl3's r' = r + Omega/2, Omega the Casimir of the trace form: E_ij (x) E_ji
# over i != j plus (1/3)(2 H1 (x) H1 + H1 (x) H2 + H2 (x) H1 + 2 H2 (x) H2).
SL3_RPRIME = {(0, 2): QQ(1), (1, 4): QQ(1), (3, 5): QQ(1), (6, 6): QQ(1, 3),
              (6, 7): QQ(1, 6), (7, 6): QQ(1, 6), (7, 7): QQ(1, 3)}


@st.composite
def accepted_rprimes(draw):
    """(g, rows): an r' that qt_validate accepts, as a dense matrix. Any r'
    on abelian3; elsewhere a nonzero multiple of a solution, as CYB is
    homogeneous and t's invariance linear: nonabelian2's r, sl2-qt's r' in a
    unimodular basis, or sl3's r + Omega/2."""
    name = draw(st.sampled_from(["abelian3", "nonabelian2", "sl2-qt", "sl3"]))
    g, r = load_lie_algebra(data_path(name))
    d = g.dim
    if name == "abelian3":  # 0 to 9 nonzero entries, so that t's rank takes every value
        idx = st.integers(0, d - 1)
        items = draw(st.dictionaries(st.tuples(idx, idx), COEFFS.map(QQ), max_size=d * d))
        return g, dense_r(items.items(), d)
    if name == "sl2-qt":
        P, Pinv = draw(unimodular(d))
        g, r = _rebased(g, P, Pinv), _rebased_r(r, Pinv)
    scale = QQ(draw(COEFFS))
    entries = SL3_RPRIME.items() if name == "sl3" else r.entries
    return g, dense_r([(ij, scale * v) for ij, v in entries], d)


@settings(max_examples=80, deadline=None)
@given(accepted_rprimes())
def test_qt_validate_split_matches_dense_loops(case):
    """r, t and nondegenerate, read from r''s sparse entries, against the
    dense split and a dense rank of t by sympy; r' given as a raw matrix
    and as an RMatrix."""
    g, rows = case
    d = g.dim
    r, t = ref_split(rows)
    rank = DomainMatrix([[SQQ(v.numerator, v.denominator) for v in row] for row in t],
                        (d, d), SQQ).rank()
    for rprime in (rows, RMatrix(g, sparse_r(rows), "quasitriangular-candidate")):
        qt = qt_validate(g, rprime)
        assert qt.rprime.entries == sparse_r(rows)
        assert (qt.r.entries, qt.t) == (sparse_r(r), sparse_r(t))
        assert qt.nondegenerate == (rank == d)


@pytest.mark.parametrize("name", ["sl2-qt", "abelian3", "nonabelian2"])
def test_inner_derivation_report_matches_hand_loops(name):
    alg, rp = load_lie_algebra(data_path(name))
    for qt in (qt_validate(alg, rp), _dense_candidate(alg)):
        report = check_inner_derivation(qt)
        assert report["passed"]
        assert report == ref_check_inner_derivation(qt)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_inner_derivation_report_matches_hand_loops_rebased(data):
    """On unimodular rebasings of sl2-qt, where no witness is a multiple of
    a basis element and mu(r') is a combination of several."""
    alg, rp = load_lie_algebra(data_path("sl2-qt"))
    P, Pinv = data.draw(unimodular(alg.dim))
    g = _rebased(alg, P, Pinv)
    qt = qt_validate(g, RMatrix(g, _rebased_r(rp, Pinv).entries, rp.kind))
    report = check_inner_derivation(qt)
    assert report["passed"]
    assert report == ref_check_inner_derivation(qt)

@pytest.mark.parametrize("s", ["0", "1", "-1/2", "3"])
def test_c_s_graded_dims_uniform_in_s(qt, s):
    assert tuple(c_s_graded_dims(QQ(s), 4, qt)) == (1, 0, 1, 0, 1)


def test_c_s_commutative_and_closed(qt):
    for s in (QQ(0), QQ(1)):
        basis = c_s_basis(s, 4, qt)
        assert len(basis) == 3
        for a, b in itertools.combinations(basis, 2):
            assert pbw_commutator(a, b).is_zero()
        for a, b in itertools.combinations_with_replacement(basis, 2):
            p = pbw_product(a, b)
            if p.filtration <= 4:
                assert c_s_map(p, qt.g, s).is_zero()


def test_c_s_everything_on_abelian(abelian3):
    g, r = abelian3
    q = qt_validate(g, r)
    assert tuple(c_s_graded_dims(QQ(1), 3, q)) == (1, 3, 6, 10)


def test_theta_transport_lands_in_c1(qt):
    for z in center(qt.g, 4):
        if z.filtration == 0:
            continue
        y = sts_theta(z, qt)
        assert c_s_map(y, qt.g, QQ(1)).is_zero()


def test_theta_transport_frozen_and_multiplicative(qt):
    C = next(z for z in center(qt.g, 4) if z.filtration == 2)
    assert C.coeffs == {(0, 2): QQ(4), (1,): QQ(-2), (1, 1): QQ(1)}
    Th = sts_theta(C, qt)
    assert Th.coeffs == {(0, 2): QQ(4), (1,): QQ(4), (1, 1): QQ(4)}
    Csq = pbw_product(C, C)
    assert sts_theta(Csq, qt) == pbw_product(Th, Th)


def test_theta_transport_rejects_noncentral(qt):
    x = PBWElement.generator(qt.g, 0)
    with pytest.raises(NotCentral):
        sts_theta(x, qt)


def test_theta_transport_needs_nondegenerate_t(abelian3):
    g, r = abelian3
    q = qt_validate(g, r)
    one = PBWElement.one(g)
    with pytest.raises(Degenerate):
        sts_theta(one, q)


def test_alpha_full_rank(qt):
    rank, dim = alpha_matrix_rank(qt, 4)
    assert rank == dim == 35


def test_alpha_on_generators_contracts_t(qt):
    # alpha(xi_a) = (xi_a (x) id)(t)
    for a in range(3):
        img = sts_alpha(PBWElement.generator(qt.dual, a), qt)
        want = {}
        for j, v in enumerate(dense_r(qt.t, 3)[a]):
            if v:
                want[(j,)] = v
        assert img.coeffs == want


def test_compare_images_c0_differs_from_c1(qt):
    rep = compare_images(qt, 4)
    assert rep == {"dim_C0": 3, "dim_C1": 3, "dim_join": 5, "equal": False}


# ---- the unmemoized (D (x) id)Delta_0 and C_s kernel, kept as the oracle ----


def ref_d_tensor_id(x, g):
    dual = x.alg
    out = PBWTensorSquare.zero(dual)
    for (m1, m2), c in coproduct_square(x).coeffs.items():
        dm1 = c_s_coderivation(PBWElement.make(dual, {m1: QQ(1)}), g)
        out = out + PBWTensorSquare.make(dual,
                                         {(mono, m2): c * v for mono, v in dm1.coeffs.items()})
    return out


def ref_c_s_basis(s, maxdeg, qt):
    basis = pbw_basis(qt.g.dim, maxdeg)
    images = []
    for mono in basis:
        x = PBWElement.make(qt.dual, {mono: QQ(1)})
        images.append((copoisson_delta(x, qt.g)
                       - ref_d_tensor_id(x, qt.g).scale(QQ(s))).numerators)
    return [PBWElement.make(qt.dual, {basis[j]: c for j, c in vec.items()})
            for vec in map(from_pair, linsolve.kernel_of(dict(enumerate(images))))]


@pytest.mark.parametrize("name, maxdeg", [("sl2-qt", 4), ("nonabelian2", 3)])
def test_c_s_basis_matches_unmemoized_kernel(name, maxdeg):
    """One structure's memo serves every s, in any order, and twice."""
    g, r = load_lie_algebra(data_path(name))
    fresh = qt_validate(g, r)
    oracle = qt_validate(g, r)
    for s in ("1", "0", "-3/4", "2", "1"):
        want = [x.coeffs for x in ref_c_s_basis(QQ(s), maxdeg, oracle)]
        assert [x.coeffs for x in c_s_basis(QQ(s), maxdeg, fresh)] == want


# ---- the two per-monomial recurrences against the direct formulas ----------


def ref_derivation_D(x, g):
    """sum over each letter x_t of a monomial of pre * D(x_t) * post, with
    D(xi_a) = sum_{i != j} c_ij^a [xi_i, xi_j] read off g's brackets."""
    dual = x.alg
    cube = dense_c(g)
    gen_img = []
    for a in range(dual.dim):
        items = {}
        for i, j in itertools.permutations(range(g.dim), 2):
            for tgt, w in rational_rows(dual).get(i, {}).get(j, ()):
                items[(tgt,)] = items.get((tgt,), QQ(0)) + cube[i][j][a] * w
        gen_img.append(PBWElement.make(dual, items))
    out = PBWElement.zero(dual)
    for mono, c in x.coeffs.items():
        for t in range(len(mono)):
            pre = PBWElement.make(dual, {mono[:t]: QQ(1)})
            post = PBWElement.make(dual, {mono[t + 1:]: QQ(1)})
            out = out + pbw_product(pbw_product(pre, gen_img[mono[t]]), post).scale(c)
    return out


def ref_antipode(x):
    """S_0: generators to their negatives, extended as antihomomorphism."""
    out = PBWElement.zero(x.alg)
    for mono, c in x.coeffs.items():
        term = PBWElement.make(x.alg, {(): c * QQ((-1) ** len(mono))})
        for i in reversed(mono):
            term = pbw_product(term, PBWElement.generator(x.alg, i))
        out = out + term
    return out


def ref_lr_image(qt, mono, right):
    d = qt.g.dim
    ent = dense_r(qt.rprime.entries, d)
    acc = PBWElement.one(qt.g)
    for a in mono:
        if right:
            img = {(i,): -ent[i][a] for i in range(d) if ent[i][a]}
        else:
            img = {(j,): ent[a][j] for j in range(d) if ent[a][j]}
        acc = pbw_product(acc, PBWElement.make(qt.g, img))
    return acc


def ref_sts_alpha(x, qt):
    """m_0 . (L (x) (S_0 . R)) . Delta_0, with S_0 applied to R's product."""
    out = PBWElement.zero(qt.g)
    for (m1, m2), c in coproduct_square(x).coeffs.items():
        left = ref_lr_image(qt, m1, right=False)
        rightimg = ref_antipode(ref_lr_image(qt, m2, right=True))
        out = out + pbw_product(left, rightimg).scale(c)
    return out


@pytest.mark.parametrize("name, maxdeg", [("sl2-qt", 4), ("nonabelian2", 3)])
def test_per_monomial_recurrences_match_direct_formulas(name, maxdeg):
    """derivation_D by Leibniz and alpha by its fold over generator images,
    on every basis monomial and on one element spanning them, against the
    unmemoized formulas."""
    g, rp = load_lie_algebra(data_path(name))
    qt = qt_validate(g, rp)
    basis = pbw_basis(g.dim, maxdeg)
    units = [PBWElement.make(qt.dual, {mono: QQ(1)}) for mono in basis]
    mixed = PBWElement.make(qt.dual,
                            {mono: QQ(j % 5 - 2, 1 + j % 3) for j, mono in enumerate(basis)})
    for x in units + [mixed]:
        assert derivation_D(x, g) == ref_derivation_D(x, g)
        assert sts_alpha(x, qt) == ref_sts_alpha(x, qt)
    assert not derivation_D(mixed, g).is_zero() and not sts_alpha(mixed, qt).is_zero()


def _qt_structures():
    """sl2-qt, its bracket scaled by 2/3 and -5/7 (Dc = 3, 7), nonabelian2,
    and the dense r' of _dense_candidate on sl2-qt: the fold and the
    co-Leibniz recursion agree with the direct formulas for every r'."""
    alg, rp = load_lie_algebra(data_path("sl2-qt"))
    out = {"sl2-qt": qt_validate(alg, rp), "sl2-qt-dense": _dense_candidate(alg),
           "nonabelian2": qt_validate(*load_lie_algebra(data_path("nonabelian2")))}
    for q in (QQ(2, 3), QQ(-5, 7)):
        g = _rescaled(alg, q)
        out[f"sl2-qt*{q}"] = qt_validate(g, RMatrix(g, rp.entries, rp.kind))
    return out


QT_STRUCTURES = _qt_structures()


def test_scaled_qt_structures_have_a_denominator():
    assert [QT_STRUCTURES[f"sl2-qt*{q}"].g.integer_rows[0] for q in ("2/3", "-5/7")] == [3, 7]


@pytest.mark.parametrize("name", sorted(QT_STRUCTURES))
def test_fold_and_co_leibniz_match_direct_formulas(name):
    """sts_alpha's fold and _d_tensor_id's co-Leibniz recursion against
    m_0 (L (x) S_0R) Delta_0 and D (x) id on the expanded Delta_0, on every
    PBW monomial to filtration 5."""
    qt = QT_STRUCTURES[name]
    for mono in pbw_basis(qt.g.dim, 5):
        x = PBWElement.make(qt.dual, {mono: QQ(1)})
        assert sts_alpha(x, qt) == ref_sts_alpha(x, qt)
        assert _d_tensor_id(x, qt.g) == ref_d_tensor_id(x, qt.g)


@st.composite
def _dual_elements(draw, qt, maxdeg):
    """A dual element with at least two terms, of filtration <= maxdeg."""
    monos = draw(st.lists(st.sampled_from(pbw_basis(qt.g.dim, maxdeg)), min_size=2,
                          max_size=6, unique=True))
    return PBWElement.make(qt.dual, {m: draw(COEFFS) for m in monos})


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fold_and_co_leibniz_on_random_elements(data):
    """On mixed elements: both maps against the direct formulas, and
    F = (D (x) id)Delta_0 obeys F(yz) = F(y)Delta_0(z) + Delta_0(y)F(z)."""
    qt = QT_STRUCTURES[data.draw(st.sampled_from(sorted(QT_STRUCTURES)))]
    x = data.draw(_dual_elements(qt, 5))
    assert sts_alpha(x, qt) == ref_sts_alpha(x, qt)
    assert _d_tensor_id(x, qt.g) == ref_d_tensor_id(x, qt.g)
    y, z, g = data.draw(_dual_elements(qt, 3)), data.draw(_dual_elements(qt, 2)), qt.g
    assert _d_tensor_id(pbw_product(y, z), g) == (
        _mult_square(_d_tensor_id(y, g), coproduct_square(z))
        + _mult_square(coproduct_square(y), _d_tensor_id(z, g)))


@pytest.mark.parametrize("name, maxdeg", [("sl2-qt", 4), ("nonabelian2", 3)])
@pytest.mark.parametrize("s", ["0", "1", "4/3", "-3/4"])
def test_c_s_basis_length_is_its_rank(name, maxdeg, s):
    """compare_images counts each kernel basis by its length."""
    qt = QT_STRUCTURES[name]
    basis = c_s_basis(QQ(s), maxdeg, qt)
    assert len(basis) == linsolve.rank_of([x.numerators for x in basis])


class _CountingMemo(dict):
    """A memo that counts lookups per (owner, hit) and records every store."""

    def __init__(self):
        super().__init__()
        self.lookups = collections.Counter()
        self.stored = []

    def get(self, key, default=None):
        self.lookups[key[0], key in self] += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def test_one_qt_run_builds_each_image_once(monkeypatch, capsys):
    memos = []

    def counting_dual(r):
        spec = envelope.dual_bracket(r)
        memos.append(spec.__dict__.setdefault("memo", _CountingMemo()))
        return spec

    alpha_args = []
    sts = quasitriangular.sts_alpha
    monkeypatch.setattr(quasitriangular, "dual_bracket", counting_dual)
    monkeypatch.setattr(quasitriangular, "sts_alpha",
                        lambda x, qt: alpha_args.append(tuple(x.coeffs)) or sts(x, qt))
    assert main(["qt", data_path("sl2-qt"), "--maxdeg", "4"]) == 0
    capsys.readouterr()
    (memo,) = memos
    for owner in ("_d_tensor_id", "sts_alpha"):
        monos = [key[-1] for key in memo.stored if key[0] == owner]
        assert len(monos) == len(set(monos)) == memo.lookups[owner, False] == 35
        assert memo.lookups[owner, True] > 0
    assert len(alpha_args) == len(set(alpha_args)) == 35


def test_sts_alpha_builds_generator_images_once(sl2qt, monkeypatch):
    """L(xi_a) and S_0R(xi_a) are built once per QTStructure, not per call."""
    qt = qt_validate(*sl2qt)
    prop = QTStructure.__dict__["alpha_generators"]
    built, build = [], prop.func
    monkeypatch.setattr(prop, "func", lambda q: built.append(q) or build(q))
    x = PBWElement.make(qt.dual, {(0, 1, 2): 1, (2, 2): QQ(1, 2)})
    assert sts_alpha(x, qt) == sts_alpha(x, qt) != PBWElement.zero(qt.g)
    assert built == [qt]


def test_one_qt_run_builds_each_delta0_once(monkeypatch, capsys):
    """delta and (D (x) id)Delta_0 read one memoized Delta_0 per monomial."""
    built = []
    square = envelope.coproduct_square
    monkeypatch.setattr(envelope, "coproduct_square",
                        lambda x: built.append((x.alg, tuple(x.coeffs))) or square(x))
    assert main(["qt", data_path("sl2-qt"), "--maxdeg", "4"]) == 0
    capsys.readouterr()
    assert built and len(built) == len(set(built))
