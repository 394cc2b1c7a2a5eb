"""Linear forms, the twisted convolution, Poisson traces, and the
filtered transport theta into the dual envelope."""
import itertools
import random

import pytest

from starlift import (
    FormalSeriesTensor,
    convolution_bracket,
    dual_bracket,
    form_pair,
    gauge_rho,
    is_poisson_trace,
    lift,
    pbw_commutator,
    pbw_product,
    poisson_traces,
    rho_product,
    theta,
    twisted_coproduct,
)
from starlift._rat import QQ
from starlift.cohochschild import _monomial_fst, monomials
from starlift.duality import LinearForm, _coproduct_images
from starlift.errors import NotATrace, TruncationTooLow

from conftest import dense_c

E, H, F = (1, 0, 0), (0, 1, 0), (0, 0, 1)


@pytest.fixture(scope="module")
def sl2rho(sl2):
    alg, r = sl2
    return alg, r, lift(r, 5)["rho"]


def test_form_pair_factorials(sl2):
    alg, _ = sl2
    xe2 = LinearForm.make(alg, {(2, 0, 0): QQ(1)})
    f = FormalSeriesTensor.make(alg, 1, 4, {((2, 0, 0),): QQ(1)})
    assert form_pair(xe2, f) == QQ(2)  # alpha! = 2!
    mixed = LinearForm.make(alg, {(1, 1, 0): QQ(1)})
    g = FormalSeriesTensor.make(alg, 1, 4, {((1, 1, 0),): QQ(3)})
    assert form_pair(mixed, g) == QQ(3)
    assert form_pair(xe2, g) == QQ(0)


def test_form_pair_needs_enough_truncation(sl2):
    alg, _ = sl2
    l = LinearForm.make(alg, {(0, 4, 0): QQ(1)})
    f = FormalSeriesTensor.make(alg, 1, 2, {((0, 1, 0),): QQ(1)})
    with pytest.raises(TruncationTooLow):
        form_pair(l, f)


def test_linear_form_arithmetic(sl2):
    alg, _ = sl2
    a = LinearForm.generator(alg, 0)
    b = LinearForm.generator(alg, 1)
    s = a + b
    assert s.order == 1
    assert (s - s).is_zero()
    assert s.scale(QQ(3)).coeffs[E] == QQ(3)
    assert LinearForm.one(alg).order == 0


def test_twisted_coproduct_reduces_to_untwisted_at_zero_rho(sl2):
    alg, _ = sl2
    rho0 = FormalSeriesTensor.zero(alg, 2, 4)
    f = FormalSeriesTensor.make(alg, 1, 4, {((1, 1, 0),): QQ(1)})
    d = twisted_coproduct(f, rho0)
    from starlift import coproduct_insert

    assert d == coproduct_insert(f, ((0, 1),), 2)


def test_rho_product_on_generators_gives_scaled_dual_bracket(sl2rho):
    alg, r, rho = sl2rho
    dual = dual_bracket(r)
    gens = [LinearForm.generator(alg, i) for i in range(3)]
    cube = dense_c(dual)
    for i in range(3):
        for j in range(3):
            comm = rho_product(gens[i], gens[j], rho) - rho_product(gens[j], gens[i], rho)
            # commutator of forms = -2 x the coboundary dual bracket
            want = {}
            for k, v in enumerate(cube[i][j]):
                if v:
                    want[tuple(1 if t == k else 0 for t in range(3))] = QQ(-2) * v
            got = {vec: c for vec, c in comm.coeffs.items() if c}
            assert got == want


def test_convolution_bracket_sl2_frozen(sl2rho):
    alg, r, rho = sl2rho
    cb = convolution_bracket(rho)
    expected = {
        (0, 1): {0: QQ(-1)},
        (1, 0): {0: QQ(1)},
        (1, 2): {2: QQ(1)},
        (2, 1): {2: QQ(-1)},
    }
    c = dense_c(cb)
    for i in range(3):
        for j in range(3):
            got = {k: v for k, v in enumerate(c[i][j]) if v}
            assert got == expected.get((i, j), {})
    # theta lands in the enveloping algebra of exactly this bracket
    for t in poisson_traces(alg, 2):
        assert theta(t, rho).alg == cb


def test_poisson_traces_sl2(sl2):
    alg, _ = sl2
    traces = poisson_traces(alg, 4)
    assert sorted(t.order for t in traces) == [0, 2, 4]
    by_order = {t.order: t for t in traces}
    assert by_order[2].coeffs == {(0, 2, 0): QQ(1), (1, 0, 1): QQ(1)}
    assert by_order[4].coeffs == {(0, 4, 0): QQ(1), (1, 2, 1): QQ(2), (2, 0, 2): QQ(1)}
    for t in traces:
        assert is_poisson_trace(t)
    assert not is_poisson_trace(LinearForm.generator(alg, 0))


def test_trace_product_is_untwisted(sl2rho):
    alg, r, rho = sl2rho
    c2 = LinearForm.make(alg, {(0, 2, 0): QQ(1), (1, 0, 1): QQ(1)})
    prod = rho_product(c2, c2, rho)
    # polynomial square of c2, no twist contributions survive on traces
    assert prod.coeffs == {
        (0, 4, 0): QQ(1),
        (1, 2, 1): QQ(2),
        (2, 0, 2): QQ(1),
    }


def test_theta_unit_and_filtration(sl2rho):
    alg, r, rho = sl2rho
    one = theta(LinearForm.one(alg), rho)
    assert one.coeffs == {(): QQ(1)}
    traces = poisson_traces(alg, 4)
    for t in traces:
        th = theta(t, rho)
        assert th.filtration == t.order
        assert th.top_symbol() == t.homogeneous_part(t.order).coeffs


def test_theta_frozen_images(sl2rho):
    alg, r, rho = sl2rho
    by_order = {t.order: t for t in poisson_traces(alg, 4)}
    th2 = theta(by_order[2], rho)
    assert th2.coeffs == {(0, 2): QQ(1), (1, 1): QQ(1)}
    th4 = theta(by_order[4], rho)
    assert th4.coeffs == {
        (0, 0, 2, 2): QQ(1),
        (0, 1, 1, 2): QQ(2),
        (0, 2): QQ(2),
        (1, 1, 1, 1): QQ(1),
    }


def test_theta_multiplicative_exactly(sl2rho):
    alg, r, rho = sl2rho
    c2 = LinearForm.make(alg, {(0, 2, 0): QQ(1), (1, 0, 1): QQ(1)})
    c2sq = LinearForm.make(alg, {(0, 4, 0): QQ(1), (1, 2, 1): QQ(2), (2, 0, 2): QQ(1)})
    assert theta(c2sq, rho) == pbw_product(theta(c2, rho), theta(c2, rho))


def test_theta_image_commutes(sl2rho):
    alg, r, rho = sl2rho
    images = [theta(t, rho) for t in poisson_traces(alg, 4)]
    for a, b in itertools.combinations(images, 2):
        assert pbw_commutator(a, b).is_zero()


def test_theta_rejects_non_traces(sl2rho):
    alg, r, rho = sl2rho
    with pytest.raises(NotATrace):
        theta(LinearForm.generator(alg, 0), rho)


def test_theta_gauge_independent(sl2rho):
    alg, r, rho = sl2rho
    traces = poisson_traces(alg, 4)
    base = [theta(t, rho) for t in traces]
    rng = random.Random(41)
    for _ in range(5):
        items = {}
        for d in range(2, 6):
            for vec in monomials(3, d):
                if rng.random() < 0.4:
                    items[(vec,)] = QQ(rng.randint(-3, 3), rng.randint(1, 4))
        lam = FormalSeriesTensor.make(alg, 1, 5, items)
        moved = gauge_rho(lam, rho)
        assert [theta(t, moved) for t in traces] == base


def test_theta_identity_on_abelian(abelian3):
    alg, r = abelian3
    rho = lift(r, 5)["rho"]
    traces = poisson_traces(alg, 3)
    # every polynomial is a trace; theta sends monomials to PBW monomials
    assert len(traces) == 1 + 3 + 6 + 10
    for t in traces:
        th = theta(t, rho)
        want = {}
        for vec, c in t.coeffs.items():
            mono = ()
            for i, m in enumerate(vec):
                mono += (i,) * m
            want[mono] = c
        assert th.coeffs == want


# ---- the twisted coproduct from its generator images -------------------------


@pytest.mark.parametrize("name", ["sl2", "nonabelian2"])
def test_coproduct_images_match_twisted_coproduct(name, request):
    alg, r = request.getfixturevalue(name)
    n = 4
    lam = FormalSeriesTensor.make(alg, 1, n, {
        (vec,): QQ(1 + pos % 3, 1 + d % 2)
        for d in range(2, n + 1) for pos, vec in enumerate(monomials(alg.dim, d)) if pos % 2 == 0})
    for rho in (r.to_series(n), gauge_rho(lam, lift(r, n)["rho"])):
        assert not rho.is_zero()
        for m in range(1, n + 1):
            table = _coproduct_images(rho, m)
            assert list(table) == [v for d in range(m + 1) for v in monomials(alg.dim, d)]
            for vec, image in table.items():
                assert image == twisted_coproduct(_monomial_fst(alg, (vec,), m), rho.truncate(m))


def test_equal_rhos_keep_separate_memos(sl2rho):
    alg, r, rho = sl2rho
    first, second = (FormalSeriesTensor.make(alg, rho.k, rho.N, rho.coeffs) for _ in range(2))
    traces = poisson_traces(alg, 4)
    images = [theta(t, first) for t in traces]
    assert [theta(t, second) for t in traces] == images
    assert first.memo.keys() == second.memo.keys() != set()
    for key in first.memo:
        assert first.memo[key] is not second.memo[key]


# ---- what theta reads of rho -------------------------------------------------


@pytest.mark.parametrize("name", ["sl2", "nonabelian2"])
def test_theta_reads_rho_through_degree_max_order_2(name, request):
    """theta(f, rho) reads rho through degree max(f.order, 2) and no further;
    the gauge certificate of the theta command relies on both halves."""
    alg, r = request.getfixturevalue(name)
    rho = lift(r, 5)["rho"]
    for f in poisson_traces(alg, 4):
        T = max(f.order, 2)
        assert theta(f, rho) == theta(f, rho.truncate(T))
        with pytest.raises(TruncationTooLow):
            theta(f, rho.truncate(T - 1))
