"""Co-Hochschild cohomology of the completed function coalgebra.

The frozen dimension table is the independently known answer: the
cohomology in slot count k and total degree N is concentrated in N = k,
where it is the full wedge power Lambda^k(g); the invariant refinement
picks out Lambda^k(g)^g.
"""
from math import comb

import pytest

from starlift import FormalSeriesTensor, cohomology_dimension, load_lie_algebra
from starlift._rat import QQ
from starlift.cohochschild import Cochain, _d_raw, invariant_basis, monomials, solve_coboundary
from starlift.errors import NotACocycle, NotInvariant


@pytest.fixture(scope="module")
def abelian1():
    return load_lie_algebra({"dim": 1, "basis": ["x"], "brackets": []})[0]


def test_monomials_are_lex_sorted_and_complete():
    monos = monomials(3, 2)
    assert monos == sorted(monos)
    assert len(monos) == comb(3 + 2 - 1, 2)
    assert all(sum(m) == 2 for m in monos)


def test_monomials_degree_zero():
    assert monomials(2, 0) == [(0, 0)]


def test_bad_arguments_rejected(sl2):
    alg, _ = sl2
    with pytest.raises(ValueError):
        cohomology_dimension(alg, 0, 2)
    with pytest.raises(ValueError):
        cohomology_dimension(alg, 1, 0)


def test_solve_coboundary_is_the_cocycle_and_invariance_check(sl2):
    alg, _ = sl2
    e, e2 = (1, 0, 0), (2, 0, 0)
    # d(e (x) e^2) = 2 e (x) e (x) e
    c = Cochain.make(2, 3, FormalSeriesTensor.make(alg, 2, 3, {(e, e2): QQ(1)}))
    with pytest.raises(NotACocycle, match="2-cochain of degree 3"):
        solve_coboundary(c)
    # d(ef) = -(e (x) f + f (x) e): a cocycle, but ef is not invariant and d
    # is injective in degree 2, so neither is d(ef)
    d_ef = _d_raw(FormalSeriesTensor.make(alg, 1, 2, {((1, 0, 1),): QQ(1)}))
    with pytest.raises(NotInvariant):
        solve_coboundary(Cochain.make(2, 2, d_ef), invariant_only=True)


def test_degree_below_slots_is_zero(sl2):
    alg, _ = sl2
    assert cohomology_dimension(alg, 3, 2) == 0


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_concentration_sl2(sl2, k, N):
    alg, _ = sl2
    if N < k:
        assert cohomology_dimension(alg, k, N) == 0
    elif N == k:
        assert cohomology_dimension(alg, k, N) == comb(3, k)
    else:
        assert cohomology_dimension(alg, k, N) == 0


def test_concentration_small_algebras(abelian1, nonabelian2):
    na, _ = nonabelian2
    for alg in (abelian1, na):
        for k in (1, 2, 3):
            for N in range(k, 5):
                expected = comb(alg.dim, k) if N == k else 0
                assert cohomology_dimension(alg, k, N) == expected


def test_invariant_refinement_sl2(sl2):
    alg, _ = sl2
    # Lambda^1(sl2)^g = 0, Lambda^2(sl2)^g = 0, Lambda^3(sl2)^g = Q
    assert cohomology_dimension(alg, 1, 1, invariant_only=True) == 0
    assert cohomology_dimension(alg, 2, 2, invariant_only=True) == 0
    assert cohomology_dimension(alg, 3, 3, invariant_only=True) == 1
    assert cohomology_dimension(alg, 2, 4, invariant_only=True) == 0


def test_invariant_refinement_nonabelian2(nonabelian2):
    alg, _ = nonabelian2
    # no ad-invariant vectors or bivectors in the affine line algebra
    assert cohomology_dimension(alg, 1, 1, invariant_only=True) == 0
    assert cohomology_dimension(alg, 2, 2, invariant_only=True) == 0


def test_invariant_refinement_abelian(abelian3):
    alg, _ = abelian3
    for k in (1, 2, 3):
        assert cohomology_dimension(alg, k, k, invariant_only=True) == comb(3, k)


def test_invariant_basis_elements_are_invariant(sl2):
    from starlift import is_invariant

    alg, _ = sl2
    basis = invariant_basis(alg, 1, 2)
    assert basis
    for b in basis:
        assert is_invariant(b)


def test_invariant_table_builds_each_basis_once(sl2, monkeypatch):
    """Row k reuses the invariant basis and rank of row k - 1; the memo
    lives on the algebra instance, so a fresh equal spec starts empty."""
    from starlift import LieAlgebraSpec, cohochschild

    alg, _ = sl2
    fresh = LieAlgebraSpec(alg.dim, alg.basis_names, alg.brackets)
    built = []
    real = cohochschild.invariant_basis
    monkeypatch.setattr(cohochschild, "invariant_basis",
                        lambda a, k, N: built.append((k, N)) or real(a, k, N))
    table = {(k, N): cohomology_dimension(fresh, k, N, invariant_only=True)
             for k in (1, 2, 3) for N in range(k, 5)}
    assert sorted(built) == sorted(table)
    # Lambda^k(sl2)^g is Q at k = 3 and zero below; nothing off the diagonal
    assert table == {(k, N): int(k == N == 3) for k, N in table}
