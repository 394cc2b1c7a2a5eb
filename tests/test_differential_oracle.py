"""The integer co-Hochschild differential against the Fraction one it
replaced: _d_raw on general tensors, the memoised monomial images
_d_monomial, _d_integer by reduced coproducts against _d_raw, d o d = 0,
_multidegree_keys against the per-coordinate enumeration, and the
canonical solutions of both solve_coboundary modes, over sl2, sl3,
nonabelian2 and a rescaled sl2. The rank of d taken once per
exponent shape against the rank summed over every multidegree block, on
abelian algebras of dim 1-5 and on sl3."""
import itertools
from functools import cache
from math import comb, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starlift import (FormalSeriesTensor, LieAlgebraSpec, cohomology_dimension,
                      coproduct_insert, linsolve, load_lie_algebra)
from starlift._rat import QQ
from starlift.cohochschild import (Cochain, _compositions_positive, _d_integer, _d_monomial,
                                   _d_raw, _dim_rank, _exponent_shapes, _monomial_fst,
                                   _multidegree_blocks, _multidegree_keys,
                                   invariant_basis, monomials, solve_coboundary)

from conftest import as_pair, data_path, slot_positive_keys
from test_kernel_oracle import ALGEBRAS, COEFFS, tensors

# ---- reference oracles: the Fraction differential and solve, kept verbatim --


def ref_d_raw(f):
    k = f.k
    n = k + 1
    out = coproduct_insert(f, [(s + 1,) for s in range(k)], n)
    sign = 1
    for i in range(1, k + 1):
        sign = -sign
        blocks = []
        for s in range(k):
            if s < i - 1:
                blocks.append((s,))
            elif s == i - 1:
                blocks.append((i - 1, i))
            else:
                blocks.append((s + 1,))
        out = out + coproduct_insert(f, blocks, n).scale(sign)
    last_sign = 1 if (k + 1) % 2 == 0 else -1
    out = out + coproduct_insert(f, [(s,) for s in range(k)], n).scale(last_sign)
    return out


def ref_solve_coboundary(c, invariant_only):
    """The solving half of solve_coboundary: the canonical preimage."""
    alg = c.value.alg
    k, N = c.k, c.degree
    if invariant_only:
        pieces = [(invariant_basis(alg, k - 1, N), c.value.coeffs)]
    else:
        blocks = _multidegree_blocks(slot_positive_keys(alg.dim, k - 1, N), alg.dim)
        pieces = []
        for tot, rhs_keys in sorted(_multidegree_blocks(c.value.coeffs, alg.dim).items()):
            basis = [_monomial_fst(alg, key, N) for key in blocks.get(tot, [])]
            pieces.append((basis, {key: c.value.coeffs[key] for key in rhs_keys}))

    value = FormalSeriesTensor.zero(alg, k - 1, N)
    for basis, target in pieces:
        sol = linsolve.preimage(dict(enumerate(ref_d_raw(v).numerators for v in basis)),
                                as_pair(target))
        assert sol is not None
        for j, x in sol.items():
            value = value + basis[j].scale(x)
    return value


def ref_multidegree_keys(tot, k):
    splits = [[tuple(a - 1 for a in c) for c in _compositions_positive(t + k, k)] for t in tot]
    keys = (tuple(zip(*cols)) for cols in itertools.product(*splits))
    return sorted(key for key in keys if all(map(any, key)))


def ref_rank_d(alg, k, N):
    """The rank of d summed over every multidegree block; the memo is left
    out so that the oracle never reads a rank the code under test stored."""
    if k < 1 or N < k:
        return 0
    blocks = _multidegree_blocks(slot_positive_keys(alg.dim, k, N), alg.dim)
    return sum(
        linsolve.rank_of([_d_monomial(key) for key in keys])
        for keys in blocks.values())


# ---- cochains ---------------------------------------------------------------


@cache
def _keys(dim, k, N):
    return tuple(slot_positive_keys(dim, k, N))


@st.composite
def cochains(draw, alg, k, N):
    """A homogeneous slot-positive k-cochain of degree N."""
    keys = st.sampled_from(_keys(alg.dim, k, N))
    items = draw(st.dictionaries(keys, COEFFS, min_size=1, max_size=4))
    return FormalSeriesTensor.make(alg, k, N, items)


def _frame(f):
    return f.alg, f.k, f.N


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_d_raw_matches_fraction_oracle(data):
    alg = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))]
    k, N = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 5))
    f = data.draw(tensors(alg, k, N))
    got, want = _d_raw(f), ref_d_raw(f)
    assert _frame(got) == _frame(want)
    assert got.coeffs == want.coeffs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_d_monomial_is_d_of_the_unit_monomial(data):
    alg = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))]
    k = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(k, 5))
    key = data.draw(st.sampled_from(_keys(alg.dim, k, N)))
    D, image = _d_monomial(key)
    assert D == 1 and all(type(n) is int and n for _, n in image)
    assert dict(image) == ref_d_raw(_monomial_fst(alg, key, N)).coeffs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_d_squares_to_zero(data):
    alg = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))]
    k, N = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 5))
    f = data.draw(tensors(alg, k, N))
    assert _d_raw(_d_raw(f)).is_zero()


@st.composite
def integer_cochains(draw):
    """(dim, k, N, {key: n}): 1-6 slot-positive k-slot keys of degree N over
    dim variables, dim and k in 1..4 and N in k..k+3, with n in +-1..9."""
    dim, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    N = draw(st.integers(k, k + 3))
    keys = st.sampled_from(_compositions_positive(N, k)).flatmap(
        lambda degs: st.tuples(*(st.sampled_from(monomials(dim, d)) for d in degs)))
    coeffs = st.integers(1, 9).flatmap(lambda n: st.sampled_from((n, -n)))
    return dim, k, N, draw(st.dictionaries(keys, coeffs, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(integer_cochains(), st.integers(1, 6))
def test_d_integer_is_d_raw_by_reduced_coproducts(case, D):
    """The signed proper splits of each slot give d_raw's k + 2 faces, in
    integer numerators over the same D, with every slot of every image key
    nonconstant."""
    dim, k, N, vec = case
    Dout, got = _d_integer((D, list(vec.items())))
    assert Dout == D and all(type(n) is int and n for _, n in got)
    assert all(all(map(any, key)) for key, _ in got)
    assert ({key: QQ(n, D) for key, n in got}
            == _d_raw(FormalSeriesTensor(_abelian(dim), k, N, vec, D)).coeffs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=4), st.integers(1, 4))
def test_multidegree_keys_match_the_per_coordinate_oracle(tot, k):
    """Multidegrees of length 1-4 with entries 0-4 and at most 2,000 splits
    into k parts, since _splits keeps every table it builds."""
    tot = tuple(tot)
    assume(prod(comb(t + k - 1, k - 1) for t in tot) <= 2000)
    assert _multidegree_keys(tot, k) == ref_multidegree_keys(tot, k)


# sl3's invariant bases get large fast: solve there at N = k only.
def _solve_sizes(name):
    return ((2, 2), (3, 3)) if name == "sl3" else ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_coboundary_matches_fraction_oracle(data):
    name = data.draw(st.sampled_from(sorted(ALGEBRAS)))
    alg = ALGEBRAS[name]
    k, N = data.draw(st.sampled_from(_solve_sizes(name)))
    beta = data.draw(cochains(alg, k - 1, N))
    c = Cochain.make(k, N, _d_raw(beta))
    got = solve_coboundary(c, invariant_only=False).value
    assert got == ref_solve_coboundary(c, False)
    assert _d_raw(got) == c.value

    basis = invariant_basis(alg, k - 1, N)
    weights = data.draw(st.lists(COEFFS, min_size=len(basis), max_size=len(basis)))
    beta = FormalSeriesTensor.zero(alg, k - 1, N)
    for v, w in zip(basis, weights):
        beta = beta + v.scale(QQ(w))
    c = Cochain.make(k, N, _d_raw(beta))
    got = solve_coboundary(c, invariant_only=True).value
    assert got == ref_solve_coboundary(c, True)
    assert _d_raw(got) == c.value


def _abelian(dim):
    return LieAlgebraSpec(dim, tuple(f"a{i}" for i in range(dim)), ()).validate()


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "abelian3", "abelian4",
                                  "abelian5", "sl3"])
def test_rank_d_by_exponent_shape_matches_per_multidegree_oracle(name):
    # fresh instances, so that no memo of another test answers
    alg = load_lie_algebra(data_path(name))[0] if name == "sl3" else _abelian(int(name[-1]))
    for N in range(1, 5):
        shapes = _exponent_shapes(alg.dim, N)
        assert sum(count for _, count in shapes) == comb(N + alg.dim - 1, alg.dim - 1)
        for k in range(1, 5):
            want = ref_rank_d(alg, k, N)
            assert _dim_rank(alg, k, N, False)[1] == want
            if k <= N:
                ncols = len(slot_positive_keys(alg.dim, k, N))
                assert cohomology_dimension(alg, k, N) == ncols - want - ref_rank_d(alg, k - 1, N)
