"""Degree-by-degree lifts of the coboundary structure and their gauge
transformations."""
import random

import pytest

from starlift import (
    FormalSeriesTensor,
    RMatrix,
    alt_project,
    cocycle_defect,
    coproduct_insert,
    cyb,
    gauge_phi,
    gauge_rho,
    is_invariant,
    lift,
    lift_associator,
    lift_twist,
    load_lie_algebra,
    negate,
    pentagon_defect,
    star,
)
from starlift._rat import QQ
from starlift.cohochschild import invariant_basis, monomials
from starlift.lifts import TWIST_CLASS_RATIO
from starlift.errors import (
    CompatibilityViolation,
    NotInMSquared,
    NotInvariant,
    NotInWedge3,
)

from conftest import data_path, multidegree_part

E, H, F = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def random_invariant_sigma(alg, N, rng):
    """Random invariant element of m^{(x)2}, exact rational coefficients."""
    pool = [b for b in invariant_basis(alg, 2, N) if b.in_m_tensor()]
    out = FormalSeriesTensor.zero(alg, 2, N)
    for b in pool:
        out = out + b.scale(QQ(rng.randint(-4, 4), rng.randint(1, 3)))
    return out


def random_lambda(alg, N, rng):
    """Random 1-slot element of m^2 (no invariance), exact coefficients."""
    items = {}
    for d in range(2, N + 1):
        for vec in monomials(alg.dim, d):
            if rng.random() < 0.4:
                items[(vec,)] = QQ(rng.randint(-4, 4), rng.randint(1, 3))
    return FormalSeriesTensor.make(alg, 1, N, items)


def test_abelian_lift_is_trivial(abelian3):
    alg, r = abelian3
    res = lift(r, 5)
    assert res["Z"].is_zero()
    assert res["phi"].is_zero()
    assert res["rho"] == r.to_series(5)


def test_nonabelian2_lift(nonabelian2):
    alg, r = nonabelian2
    res = lift(r, 5)
    assert res["Z"].is_zero()
    assert res["phi"].is_zero()
    assert pentagon_defect(res["phi"]).is_zero()
    assert cocycle_defect(res["rho"], res["phi"]).is_zero()
    assert multidegree_part(res["rho"], (1, 1)) == r.to_series(5)


def test_sl2_lift(sl2):
    alg, r = sl2
    res = lift(r, 5)
    Z, phi, rho = res["Z"], res["phi"], res["rho"]
    assert pentagon_defect(phi).is_zero()
    assert cocycle_defect(rho, phi).is_zero()
    assert is_invariant(phi)
    assert multidegree_part(rho, (1, 1)) == r.to_series(5)
    assert alt_project(phi) == Z.scale(QQ(2, 3))


def test_sl2_phi_cubic_part_frozen(sl2):
    alg, r = sl2
    phi = lift(r, 4)["phi"]
    q = QQ(1, 6)
    assert phi.homogeneous_part(3).coeffs == {
        (E, H, F): -q, (E, F, H): q, (H, E, F): q,
        (H, F, E): -q, (F, E, H): -q, (F, H, E): q,
    }


def test_unscaled_class_cannot_start_the_twist(sl2):
    alg, r = sl2
    Z = cyb(r)
    phi_bad = lift_associator(Z, 4)
    assert pentagon_defect(phi_bad).is_zero()
    with pytest.raises(CompatibilityViolation):
        lift_twist(r, phi_bad, 4)


def test_lift_associator_input_checks(sl2):
    alg, r = sl2
    Z = cyb(r)
    with pytest.raises(NotInWedge3):
        lift_associator(Z + FormalSeriesTensor.make(alg, 3, Z.N, {(E, E, E): QQ(1)}), 4)
    # on [a,b] = b with central c, the top wedge a^b^c is not ad-invariant
    aff, _ = load_lie_algebra(
        {"dim": 3, "basis": ["a", "b", "c"], "brackets": [[0, 1, [[1, "1"]]]]}
    )
    keys = {}
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        vecs = tuple(tuple(1 if t == p else 0 for t in range(3)) for p in perm)
        keys[vecs] = QQ(sign, 6)
    wedge = FormalSeriesTensor.make(aff, 3, 4, keys)
    assert alt_project(wedge) == wedge
    assert not is_invariant(wedge)
    with pytest.raises(NotInvariant):
        lift_associator(wedge, 4)


def test_gauge_phi_preserves_solution(sl2):
    alg, r = sl2
    phi = lift(r, 5)["phi"]
    rng = random.Random(11)
    for _ in range(3):
        sigma = random_invariant_sigma(alg, 5, rng)
        moved = gauge_phi(sigma, phi)
        assert pentagon_defect(moved).is_zero()
        assert is_invariant(moved)


def test_gauge_rho_preserves_cocycle(sl2):
    alg, r = sl2
    res = lift(r, 5)
    phi, rho = res["phi"], res["rho"]
    rng = random.Random(13)
    for _ in range(3):
        lam = random_lambda(alg, 5, rng)
        moved = gauge_rho(lam, rho)
        assert cocycle_defect(moved, phi).is_zero()


def test_gauge_identity_elements(sl2):
    alg, r = sl2
    res = lift(r, 4)
    phi, rho = res["phi"], res["rho"]
    zero2 = FormalSeriesTensor.zero(alg, 2, 4)
    zero1 = FormalSeriesTensor.zero(alg, 1, 4)
    assert gauge_phi(zero2, phi) == phi
    assert gauge_rho(zero1, rho) == rho


def test_gauge_phi_rejects_noninvariant_sigma(sl2):
    alg, r = sl2
    phi = lift(r, 4)["phi"]
    sigma = FormalSeriesTensor.make(alg, 2, 4, {(E, F): QQ(1)})
    with pytest.raises(NotInvariant):
        gauge_phi(sigma, phi)


def test_gauge_rho_rejects_linear_lambda(sl2):
    alg, r = sl2
    rho = lift(r, 4)["rho"]
    lam = FormalSeriesTensor.generator(alg, 0, 4)
    with pytest.raises(NotInMSquared):
        gauge_rho(lam, rho)


# ---- the defects against their star-group form LHS * -RHS -------------------


def group_pentagon_defect(phi):
    lhs = star(coproduct_insert(phi, ((0,), (1,), (2, 3)), 4),
               coproduct_insert(phi, ((0, 1), (2,), (3,)), 4))
    rhs = star(star(coproduct_insert(phi, ((1,), (2,), (3,)), 4),
                    coproduct_insert(phi, ((0,), (1, 2), (3,)), 4)),
               coproduct_insert(phi, ((0,), (1,), (2,)), 4))
    return star(lhs, negate(rhs))


def group_cocycle_defect(rho, phi):
    lhs = star(coproduct_insert(rho, ((0,), (1,)), 3), coproduct_insert(rho, ((0, 1), (2,)), 3))
    rhs = star(star(coproduct_insert(rho, ((1,), (2,)), 3),
                    coproduct_insert(rho, ((0,), (1, 2)), 3)), phi)
    return star(lhs, negate(rhs))


def _same_lowest_part(got, want):
    assert not want.is_zero() and not got.is_zero()
    m = want.min_degree()
    assert got.min_degree() == m
    assert got.homogeneous_part(m) == want.homogeneous_part(m)


def test_defects_match_group_form_on_non_solutions(sl2):
    alg, r = sl2
    N = 5
    embedded = FormalSeriesTensor.make(alg, 3, N, cyb(r).scale(TWIST_CLASS_RATIO).coeffs)
    _same_lowest_part(pentagon_defect(embedded), group_pentagon_defect(embedded))
    rho0 = r.to_series(N)
    for phi in (FormalSeriesTensor.zero(alg, 3, N), lift(r, N)["phi"]):
        _same_lowest_part(cocycle_defect(rho0, phi), group_cocycle_defect(rho0, phi))


@pytest.mark.parametrize("name", ["sl2", "nonabelian2"])
def test_defects_and_group_form_vanish_on_lifts(name, request):
    alg, r = request.getfixturevalue(name)
    res = lift(r, 5)
    phi, rho = res["phi"], res["rho"]
    for defect in (pentagon_defect(phi), group_pentagon_defect(phi),
                   cocycle_defect(rho, phi), group_cocycle_defect(rho, phi)):
        assert defect.is_zero()


# ---- gauging commutes with truncation ----------------------------------------


@pytest.mark.parametrize("name", ["sl2", "nonabelian2"])
def test_gauge_rho_commutes_with_truncation(name, request):
    alg, r = request.getfixturevalue(name)
    N = 5
    rho = lift(r, N)["rho"]
    rng = random.Random(17)
    for _ in range(3):
        lam = random_lambda(alg, N, rng)
        moved = gauge_rho(lam, rho)
        for T in range(2, N + 1):
            cut = gauge_rho(lam.truncate(T), rho.truncate(T))
            assert cut.N == T
            assert moved.truncate(T) == cut


# ---- the lift is prefix-stable -----------------------------------------------


# Step M of either lift reads only the truncation at M + 1, so a lift to N cut
# at T is the lift to T; theta relies on this to lift no higher than it reads.
# sl2*3/4 has the shape of the benchmark's theta input.
@pytest.mark.parametrize("name, N", [("sl2", 5), ("nonabelian2", 5), ("abelian3", 5),
                                     ("sl2*3/4", 5), ("sl3", 4)])
def test_lift_truncates_to_lower_lift(name, N):
    alg, r = load_lie_algebra(data_path(name.split("*")[0]))
    if name == "sl2*3/4":
        r = RMatrix(alg, tuple((ij, v * QQ(3, 4)) for ij, v in r.entries))
    full = lift(r, N)
    for T in range(3, N + 1):
        cut = lift(r, T)
        for key in ("phi", "rho"):
            assert cut[key].N == T
            assert full[key].truncate(T) == cut[key]
