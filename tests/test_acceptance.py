"""Acceptance suite: every primary guarantee of the package, checked at
exact zero tolerance. One pass/fail line per criterion in verbose runs.

Criterion 1 asserts the exact alternating class of phi, which is
(2/3)Z, not Z = cyb(r). With rho = r and phi = 0 the degree-3
cocycle-defect class is (1/2)cyb(r) + (1/2)[r^{12},r^{23}], and
alt_project([r^{12},r^{23}]) = (1/3)cyb(r) for antisymmetric r. H^3 in
degree (1,1,1) is wedge^3 g, read off by alt_project (criterion 2), and
later corrections d(beta) have no alternating part, so the twist can
start only if alt_project(phi) = (2/3)Z. Rescaling rho's (1,1) part to
c*r gives (2/3)c^2 Z; reaching Z needs c^2 = 3/2, which has no rational
solution. The 2/3 is written here as a literal, and the class is also
derived independently from cocycle_defect, so a drift in the program's
constant is caught.
"""
import itertools
import random
import time
from math import comb

import pytest

from starlift import (
    FormalSeriesTensor,
    alt_project,
    c_s_basis,
    c_s_graded_dims,
    c_s_map,
    center,
    check_inner_derivation,
    cocycle_defect,
    cohomology_dimension,
    derivation_D,
    dual_bracket,
    gauge_phi,
    gauge_rho,
    invariants_s_dual,
    is_invariant,
    lift,
    load_lie_algebra,
    pbw_commutator,
    pbw_product,
    pentagon_defect,
    poisson_bracket,
    poisson_traces,
    qt_validate,
    sts_theta,
    theta,
)
from starlift._rat import QQ
from starlift.cli import main as cli_main
from starlift.cohochschild import invariant_basis, monomials
from starlift.envelope import PBWElement, pbw_basis
from starlift.quasitriangular import alpha_matrix_rank

from conftest import data_path, multidegree_part


def report(lines, label, ok):
    lines.append((label, ok))
    print(f"  {label}: {'PASS' if ok else 'FAIL'}")


def finish(criterion, lines):
    ok = all(flag for _, flag in lines)
    print(f"{criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, [label for label, flag in lines if not flag]


@pytest.mark.parametrize("name", ["nonabelian2", "sl2"])
def test_criterion_1_lift_existence(name):
    start = time.monotonic()
    alg, r = load_lie_algebra(data_path(name))
    res = lift(r, 6)
    Z, phi, rho = res["Z"], res["phi"], res["rho"]
    lines = []
    report(lines, "pentagon_defect zero mod degree 7", pentagon_defect(phi).is_zero())
    report(lines, "cocycle_defect zero mod degree 7", cocycle_defect(rho, phi).is_zero())
    report(lines, "phi invariant", is_invariant(phi))
    report(lines, "alt_project(phi) equals (2/3)Z", alt_project(phi) == Z.scale(QQ(2, 3)))
    untwisted = cocycle_defect(r.to_series(6), FormalSeriesTensor.zero(alg, 3, 6))
    report(
        lines,
        "alt_project(phi) equals the alternating class of the untwisted defect",
        alt_project(phi) == alt_project(untwisted.homogeneous_part(3)),
    )
    report(lines, "rho degree (1,1) equals r", multidegree_part(rho, (1, 1)) == r.to_series(6))
    elapsed = time.monotonic() - start
    report(lines, "within 5 minutes", elapsed <= 300)
    finish(f"criterion 1 lift existence [{name}]", lines)


def test_criterion_2_cohomology_table():
    start = time.monotonic()
    algebras = {
        1: load_lie_algebra({"dim": 1, "basis": ["x"], "brackets": []})[0],
        2: load_lie_algebra(data_path("nonabelian2"))[0],
        3: load_lie_algebra(data_path("sl2"))[0],
    }
    invariant_wedge = {
        1: {1: 1, 2: 0, 3: 0},
        2: {1: 0, 2: 0, 3: 0},
        3: {1: 0, 2: 0, 3: 1},
    }
    lines = []
    for dim, alg in algebras.items():
        for k in (1, 2, 3):
            for N in range(k, 7):
                got = cohomology_dimension(alg, k, N)
                want = comb(dim, k) if N == k else 0
                report(lines, f"dim{dim} k={k} N={N}: {got} == {want}", got == want)
                got_inv = cohomology_dimension(alg, k, N, invariant_only=True)
                want_inv = invariant_wedge[dim][k] if N == k else 0
                report(
                    lines,
                    f"dim{dim} k={k} N={N} invariant: {got_inv} == {want_inv}",
                    got_inv == want_inv,
                )
    elapsed = time.monotonic() - start
    report(lines, "within 1 minute", elapsed <= 60)
    finish("criterion 2 cohomology table", lines)


def test_criterion_3_gauge_covariance():
    alg, r = load_lie_algebra(data_path("sl2"))
    res = lift(r, 5)
    phi, rho = res["phi"], res["rho"]
    sigma_pool = [b for b in invariant_basis(alg, 2, 5) if b.in_m_tensor()]
    rng = random.Random(2026)
    lines = []
    for trial in range(20):
        sigma = FormalSeriesTensor.zero(alg, 2, 5)
        for b in sigma_pool:
            sigma = sigma + b.scale(QQ(rng.randint(-4, 4), rng.randint(1, 3)))
        ok = pentagon_defect(gauge_phi(sigma, phi)).is_zero()
        report(lines, f"sigma trial {trial}: pentagon preserved", ok)
    for trial in range(20):
        items = {}
        for d in range(2, 6):
            for vec in monomials(3, d):
                if rng.random() < 0.5:
                    items[(vec,)] = QQ(rng.randint(-4, 4), rng.randint(1, 3))
        lam = FormalSeriesTensor.make(alg, 1, 5, items)
        ok = cocycle_defect(gauge_rho(lam, rho), phi).is_zero()
        report(lines, f"lambda trial {trial}: cocycle preserved", ok)
    finish("criterion 3 gauge covariance", lines)


def test_criterion_4_theta_properties():
    alg, r = load_lie_algebra(data_path("sl2"))
    rho = lift(r, 5)["rho"]
    traces = poisson_traces(alg, 4)
    images = [theta(t, rho) for t in traces]
    lines = []
    filtered = all(
        th.filtration == t.order and th.top_symbol() == t.homogeneous_part(t.order).coeffs
        for t, th in zip(traces, images)
    )
    report(lines, "theta filtered with gr theta the inclusion", filtered)
    from starlift.duality import LinearForm

    by_order = {t.order: t for t in traces}
    c2 = by_order[2]
    c2sq = LinearForm.make(alg, {
        (0, 4, 0): QQ(1), (1, 2, 1): QQ(2), (2, 0, 2): QQ(1),
    })
    mult = theta(c2sq, rho) == pbw_product(theta(c2, rho), theta(c2, rho))
    report(lines, "theta(c2^2) equals theta(c2)^2 exactly", mult)
    comm = all(
        pbw_commutator(a, b).is_zero() for a, b in itertools.combinations(images, 2)
    )
    report(lines, "theta image commutative", comm)
    rng = random.Random(404)
    for trial in range(5):
        items = {}
        for d in range(2, 6):
            for vec in monomials(3, d):
                if rng.random() < 0.5:
                    items[(vec,)] = QQ(rng.randint(-4, 4), rng.randint(1, 3))
        lam = FormalSeriesTensor.make(alg, 1, 5, items)
        moved = gauge_rho(lam, rho)
        ok = [theta(t, moved) for t in traces] == images
        report(lines, f"lambda trial {trial}: theta unchanged", ok)
    finish("criterion 4 theta properties", lines)


def test_criterion_5_poisson_commutativity():
    alg, r = load_lie_algebra(data_path("sl2"))
    dual = dual_bracket(r)
    inv = invariants_s_dual(alg, 4)
    lines = []
    for f, g in itertools.combinations(inv, 2):
        ff = FormalSeriesTensor.make(dual, 1, 8, {(v,): c for v, c in f.coeffs.items()})
        gg = FormalSeriesTensor.make(dual, 1, 8, {(v,): c for v, c in g.coeffs.items()})
        ok = poisson_bracket(ff, gg).is_zero()
        report(lines, f"orders ({f.order},{g.order}) Poisson-commute", ok)
    finish("criterion 5 Poisson commutativity of invariants", lines)


def test_criterion_6_quasitriangular_suite():
    start = time.monotonic()
    g, rp = load_lie_algebra(data_path("sl2-qt"))
    qt = qt_validate(g, rp)
    lines = []
    report(lines, "qt_validate passes", True)
    for s in (QQ(0), QQ(1)):
        basis = c_s_basis(s, 4, qt)
        comm = all(pbw_commutator(a, b).is_zero()
                   for a, b in itertools.combinations(basis, 2))
        report(lines, f"C_{s} commutative", comm)
        closed = all(
            c_s_map(p, g, s).is_zero()
            for a, b in itertools.combinations_with_replacement(basis, 2)
            for p in (pbw_product(a, b),)
            if p.filtration <= 4
        )
        report(lines, f"C_{s} closed under product", closed)
    dims = tuple(c_s_graded_dims(QQ(1), 4, qt))
    report(lines, f"gr C_1 dims {dims} == (1,0,1,0,1)", dims == (1, 0, 1, 0, 1))
    inv_dims = [0] * 5
    for l in invariants_s_dual(g, 4):
        inv_dims[l.order] += 1
    report(lines, "gr C_1 dims == dims of invariant functions", tuple(inv_dims) == dims)
    central = [z for z in center(g, 4) if z.filtration == 2]
    C = central[0]
    Th = sts_theta(C, qt)
    report(lines, "Theta(C) lands in C_1", c_s_map(Th, g, QQ(1)).is_zero())
    Csq = pbw_product(C, C)
    report(lines, "Theta(C^2) == Theta(C)^2", sts_theta(Csq, qt) == pbw_product(Th, Th))
    rank, dim = alpha_matrix_rank(qt, 4)
    report(lines, f"alpha full rank {rank}/{dim} at filtration <= 4", rank == dim)
    elapsed = time.monotonic() - start
    report(lines, "within 2 minutes", elapsed <= 120)
    finish("criterion 6 quasitriangular suite", lines)


def test_criterion_7_inner_derivation():
    lines = []
    for name in ("sl2-qt", "abelian3", "nonabelian2"):
        g, rp = load_lie_algebra(data_path(name))
        rep = check_inner_derivation(qt_validate(g, rp))
        report(lines, f"{name}: mu o delta == -ad(mu(r')) on all generators",
               rep["passed"] and all(w["match"] for w in rep["witnesses"]))
    finish("criterion 7 inner derivation", lines)


def test_criterion_8_trivial_regression():
    alg, r = load_lie_algebra(data_path("abelian3"))
    lines = []
    res = lift(r, 5)
    report(lines, "rho equals r", res["rho"] == r.to_series(5))
    report(lines, "phi equals 0", res["phi"].is_zero())
    rho = res["rho"]
    dual = dual_bracket(r)
    identity = True
    for t in poisson_traces(alg, 3):
        th = theta(t, rho)
        want = {}
        for vec, c in t.coeffs.items():
            mono = ()
            for i, m in enumerate(vec):
                mono += (i,) * m
            want[mono] = c
        identity = identity and th.coeffs == want
    report(lines, "theta is the identity on monomials", identity)
    d_zero = all(
        derivation_D(PBWElement.make(dual, {m: QQ(1)}), alg).is_zero()
        for m in pbw_basis(3, 3)
    )
    report(lines, "D == 0", d_zero)
    qt = qt_validate(alg, r)
    dims = tuple(c_s_graded_dims(QQ(1), 3, qt))
    report(lines, "C_s is everything", dims == (1, 3, 6, 10))
    for cmd in ("validate", "lift", "cohomology", "envelope", "theta", "qt"):
        code = cli_main([cmd, data_path("abelian3")])
        report(lines, f"cli {cmd} exits 0 with all certificates true", code == 0)
    finish("criterion 8 trivial regression", lines)
