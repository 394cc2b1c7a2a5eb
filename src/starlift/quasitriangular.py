"""Quasitriangular structures: validation of (g, r'), the commutative
subalgebras C_s of the dual enveloping algebra, the transport map alpha,
the central-element morphism into C_1, and the inner-derivation identity
on U(g)."""
from __future__ import annotations

import itertools
from functools import cached_property

from . import linsolve
from ._rat import QQ, ZERO
from .core import (FormalSeriesTensor, LieAlgebraSpec, RMatrix, _cleared, _nonzero, _parse_rat,
                   _Record, _unit, combine, coproduct_insert, cyb, g_action, is_invariant,
                   poisson_bracket)
from .envelope import (PBWElement, PBWTensorSquare, _co_leibniz, copoisson_delta, derivation_D,
                       dual_bracket, pbw_basis, pbw_commutator, pbw_product)
from .errors import (CYBViolation, Degenerate, NotCentral, ParseError, RankCertificate,
                     SingularPairing, TNotInvariant)


class QTStructure(_Record):
    """A validated (g, r'): r is its antisymmetric half, t its symmetric invariant
    part in the form of RMatrix.entries, Z the 3-slot element (1/4)[t^12, t^23]."""

    _fields = ("g", "rprime", "r", "t", "Z", "nondegenerate")

    def __init__(self, g: LieAlgebraSpec, rprime: RMatrix, r: RMatrix, t: tuple,
                 Z: FormalSeriesTensor, nondegenerate: bool):
        self.__dict__.update(g=g, rprime=rprime, r=r, t=t, Z=Z, nondegenerate=nondegenerate)

    @cached_property
    def dual(self) -> LieAlgebraSpec:
        return dual_bracket(self.r)

    @cached_property
    def alpha_generators(self) -> tuple:
        """sts_alpha's (L(xi_a), S_0R(xi_a)) = (sum_j r'_aj x_j, sum_i r'_ia x_i) per a."""
        g = self.g
        left, right = [{} for _ in range(g.dim)], [{} for _ in range(g.dim)]
        for (i, j), v in self.rprime.entries:
            left[i][(j,)] = right[j][(i,)] = v
        return tuple((PBWElement.make(g, left[a]), PBWElement.make(g, right[a]))
                     for a in range(g.dim))


def _t_bracket_z(alg: LieAlgebraSpec, t) -> FormalSeriesTensor:
    """(1/4)[t^{12}, t^{23}] as a 3-slot series, bracketing t's insertions
    as cyb does."""
    ts = RMatrix(alg, t, "quasitriangular-candidate").to_series(3)
    t12, t23 = (coproduct_insert(ts, blocks, 3) for blocks in (((0,), (1,)), ((1,), (2,))))
    return poisson_bracket(t12, t23).scale(QQ(1, 4))


def qt_validate(g: LieAlgebraSpec, rprime) -> QTStructure:
    """Check CYB(r') = 0 and invariance of the symmetric part, then package
    the derived data (antisymmetric half, t, the 3-slot element Z)."""
    d, rp = g.dim, rprime
    if not isinstance(rp, RMatrix):
        if not (isinstance(rp, (list, tuple)) and len(rp) == d
                and all(isinstance(row, (list, tuple)) and len(row) == d for row in rp)):
            raise ParseError(f"r' must be a list of {d} lists of {d} entries")
        rp = RMatrix(g, _nonzero(((i, j), _parse_rat(v, f"r'[{i},{j}]"))
                                 for i, row in enumerate(rp) for j, v in enumerate(row)),
                     "quasitriangular-candidate")

    res = cyb(rp, require_antisymmetric=False)
    if not res.is_zero():
        raise CYBViolation("CYB(r') must vanish exactly",
                           residual_terms=len(res.coeffs))

    t = _nonzero(pair for (i, j), v in rp.entries for pair in (((i, j), v), ((j, i), v)))
    t_series = RMatrix(g, t, "quasitriangular-candidate").to_series(2)
    if not is_invariant(t_series):
        for k in range(d):  # reported at the first (k, i, j) in index order
            bad = g_action(k, t_series).coeffs
            if bad:
                i, j = min((a.index(1), b.index(1)) for a, b in bad)
                raise TNotInvariant(f"symmetric part not ad-invariant at ({k},{i},{j})")

    rmat = RMatrix(g, _nonzero(pair for (i, j), v in rp.entries
                               for pair in (((i, j), v / 2), ((j, i), -v / 2)))).validate()

    Z = _t_bracket_z(g, t)
    if cyb(rmat) != Z:
        raise RankCertificate("internal check: CYB of the antisymmetric half")

    rows = itertools.groupby(t, lambda item: item[0][0])  # t is symmetric: rows are columns
    nondegenerate = linsolve.rank_of(_cleared({j: v for (_, j), v in row}) for _, row in rows) == d
    return QTStructure(g=g, rprime=rp, r=rmat, t=t, Z=Z, nondegenerate=nondegenerate)


def c_s_coderivation(x: PBWElement, g: LieAlgebraSpec) -> PBWElement:
    """The (co)derivation entering the C_s condition: bracket compose
    cobracket of the dual, with the cobracket taken co-opposite in wedge
    normalization, i.e. -1/2 times the raw tensor-sum composition.

    The -1/2 is the inverse of the factor by which the convolution product
    rescales the dual bracket on degree-1 commutators; with it the
    transported center lands exactly in C_1."""
    return derivation_D(x, g).scale(QQ(-1, 2))


def _d_tensor_id(x: PBWElement, g: LieAlgebraSpec) -> PBWTensorSquare:
    """(D (x) id) applied to Delta_0(x): D (x) id is a derivation and Delta_0
    an algebra map, so it follows copoisson_delta's co-Leibniz rule from
    D(x_a) (x) 1, and C_s at every s shares its memoized images."""
    def generator_image(a):
        D, items = c_s_coderivation(PBWElement.generator(x.alg, a), g).numerators
        return PBWTensorSquare(x.alg, {(m, ()): n for m, n in items}, D)

    return _co_leibniz(x, "_d_tensor_id", g, generator_image)


def c_s_map(x: PBWElement, g: LieAlgebraSpec, s) -> PBWTensorSquare:
    """The defining map of C_s: delta(x) - s * (D (x) id)(Delta_0(x))."""
    return combine([(1, copoisson_delta(x, g)), (-QQ(s), _d_tensor_id(x, g))])


def c_s_basis(s, maxdeg: int, qt: QTStructure) -> list:
    """Basis of C_s = Ker(delta - s(D (x) id)Delta_0) inside the dual
    enveloping algebra, restricted to filtration <= maxdeg; computed once
    per (s, maxdeg) on the dual."""
    dual = qt.dual
    key = ("c_s_basis", QQ(s), maxdeg)
    if key not in dual.memo:
        images = {mono: c_s_map(PBWElement(dual, {mono: 1}), qt.g, s).numerators
                  for mono in pbw_basis(qt.g.dim, maxdeg)}
        dual.memo[key] = [PBWElement.make(dual, vec) for vec in linsolve.kernel_of(images)]
    return list(dual.memo[key])


def c_s_graded_dims(s, maxdeg: int, qt: QTStructure) -> tuple:
    """dim gr(C_s) per degree 0..maxdeg. Each c_s_basis vector is read off
    the RREF over the graded PBW basis: 1 at its free column, a monomial m,
    support in the columns up to m, so its filtration is len(m) and those of
    filtration <= d are a basis of the cutoff-d kernel."""
    dims = [0] * (maxdeg + 1)
    for x in c_s_basis(s, maxdeg, qt):
        dims[x.filtration] += 1
    return tuple(dims)


def sts_alpha(x: PBWElement, qt: QTStructure) -> PBWElement:
    """m_0 . (L (x) (S_0 . R)) . Delta_0 : U(g*) -> U(g), for L and R the
    algebra morphisms extending the generator images r'(xi_a (x) .) and
    -r'(. (x) xi_a), and S_0 the antihomomorphism negating generators. As
    Delta_0(x_a m) = (x_a (x) 1 + 1 (x) x_a) Delta_0(m), each monomial is
    alpha(x_a m) = L(x_a) alpha(m) + alpha(m) S_0R(x_a), with alpha(m) read
    from _alpha_images' memo when it holds m."""
    g, gens = qt.g, qt.alpha_generators

    def of_monomial(mono):
        if not mono:
            return PBWElement.one(g)
        rest = qt.dual.memo.get(("sts_alpha", qt.rprime, mono[1:])) or of_monomial(mono[1:])
        left, right = gens[mono[0]]
        return pbw_product(left, rest) + pbw_product(rest, right)

    return x.extend_linearly(of_monomial, PBWElement.zero(g))


def _alpha_images(qt: QTStructure, maxdeg: int) -> dict:
    """{mono: alpha(mono) numerators} over the PBW basis of the dual
    enveloping algebra up to filtration maxdeg, each image memoized per
    monomial and r' (with it g) on the dual. The basis is graded, so each
    sts_alpha call finds alpha(mono[1:]) in the memo."""
    images = {}
    for mono in pbw_basis(qt.g.dim, maxdeg):
        key = ("sts_alpha", qt.rprime, mono)
        img = qt.dual.memo.get(key)
        if img is None:
            img = qt.dual.memo[key] = sts_alpha(PBWElement(qt.dual, {mono: 1}), qt)
        images[mono] = img.numerators
    return images


def alpha_matrix_rank(qt: QTStructure, maxdeg: int) -> tuple:
    """(rank, dimension) of alpha restricted to filtration <= maxdeg."""
    images = _alpha_images(qt, maxdeg)
    return (linsolve.rank_of(images.values()), len(images))


def sts_theta(z: PBWElement, qt: QTStructure) -> PBWElement:
    """Inverse-transport a central element of U(g) through alpha."""
    g = qt.g
    for i in range(g.dim):
        gen = PBWElement.generator(g, i)
        if not pbw_commutator(z, gen).is_zero():
            raise NotCentral(f"input does not commute with generator {i}")
    if not qt.nondegenerate:
        raise Degenerate("t is singular; alpha is not invertible")

    sol = linsolve.preimage(_alpha_images(qt, z.filtration), z.numerators)
    if sol is None:
        raise SingularPairing("alpha did not reach the requested element")
    return PBWElement.make(qt.dual, sol)


def _bracket_contraction(f: FormalSeriesTensor) -> tuple:
    """x (x) y -> [x, y] on a 2-slot series of degree (1, 1), as a
    coefficient vector over the basis of g."""
    g = f.alg
    D, items = f.numerators
    out = [0] * g.dim  # integer numerators over D * Dc
    for (a, b), n in items:
        for vec, w in g.slot_brackets[a, b][1]:
            out[vec.index(1)] += n * w
    return tuple(QQ(v, D * g.integer_rows[0]) for v in out)


def mu_of_rprime(qt: QTStructure) -> tuple:
    """The bracket contraction sum_ij r'_ij [x_i, x_j] as a coefficient
    vector over the basis of g."""
    return _bracket_contraction(qt.rprime.to_series(2))


def check_inner_derivation(qt: QTStructure) -> dict:
    """On every generator x_k of g, compare mu(delta(x_k)) against
    -[mu(r'), x_k] = ad(x_k) mu(r'), with delta(x_k) = ad(x_k) r on g (x) g.
    Returns a report with per-generator witnesses. By Jacobi
    mu(ad(x) r) = [x, mu(r)] for every r, and mu(r) = mu(r'), so this
    checks the implementation (g_action against the bracket contraction),
    not a property of r'."""
    g = qt.g
    mu_rp = mu_of_rprime(qt)
    mu = FormalSeriesTensor.make(g, 1, 1, {(_unit(g.dim, m),): v for m, v in enumerate(mu_rp)})
    r = qt.r.to_series(2)
    witnesses = []
    for k in range(g.dim):
        lhs = _bracket_contraction(g_action(k, r))
        ad_mu = {vec.index(1): v for (vec,), v in g_action(k, mu).coeffs.items()}
        rhs = tuple(ad_mu.get(m, ZERO) for m in range(g.dim))
        witnesses.append({
            "generator": g.basis_names[k],
            "mu_delta": lhs,
            "minus_ad_mu": rhs,
            "match": lhs == rhs,
        })
    return {
        "passed": all(w["match"] for w in witnesses),
        "mu_rprime": mu_rp,
        "witnesses": witnesses,
    }


def compare_images(qt: QTStructure, maxdeg: int) -> dict:
    """Report whether C_0 and C_1 agree as subspaces at filtration <= maxdeg."""
    b0 = c_s_basis(QQ(0), maxdeg, qt)
    b1 = c_s_basis(QQ(1), maxdeg, qt)
    r0, r1 = len(b0), len(b1)  # kernel_of vectors: independent, 1 at distinct free columns
    rj = linsolve.rank_of([e.numerators for e in b0 + b1])
    return {
        "dim_C0": r0,
        "dim_C1": r1,
        "dim_join": rj,
        "equal": rj == r0 == r1,
    }
