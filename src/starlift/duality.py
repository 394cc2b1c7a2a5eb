"""Restricted-dual linear forms (envelope.LinearForm) on the function
algebra: their pairing, the rho-twisted coproduct and convolution product,
Poisson traces, and the filtered morphism theta from Poisson traces into
the dual enveloping algebra.

Pairing convention: the form with single key alpha evaluates on x^beta as
delta_{alpha beta} * alpha! (per-variable factorials). With it, untwisted
convolution of forms is exactly polynomial multiplication, which is what
makes the gr(theta) = inclusion check come out with no stray factors.
"""
from __future__ import annotations

import itertools
from math import factorial, lcm

from . import linsolve
from ._rat import ZERO
from .cohochschild import monomials
from .core import FormalSeriesTensor, LieAlgebraSpec, coproduct_insert, multiply
from .envelope import LinearForm, PBWElement, pbw_basis
from .errors import NotATrace, NotInMSquared, SingularPairing, SlotMismatch, TruncationTooLow
from .star import star_conjugate


def _vec_factorial(vec) -> int:
    out = 1
    for e in vec:
        out *= factorial(e)
    return out


def form_pair(l: LinearForm, f: FormalSeriesTensor):
    """<l, f> = sum_alpha l(alpha) * alpha! * [x^alpha](f)."""
    if f.k != 1:
        raise SlotMismatch(f"forms pair with 1-slot series, got {f.k} slots")
    if l.order > f.N:
        raise TruncationTooLow(
            f"form of order {l.order} paired against truncation {f.N}"
        )
    total = ZERO
    for vec, c in l.coeffs.items():
        fc = f.coeffs.get((vec,))
        if fc:
            total += c * _vec_factorial(vec) * fc
    return total


def _pair_two(a: dict, b: dict, t: FormalSeriesTensor) -> int:
    """(l1 (x) l2)(t) times D1 * D2 * Dt, for a = {vec: n * vec!} over the
    numerators n / D1 of l1, b likewise for l2, and Dt t's denominator."""
    total = 0
    for (v1, v2), c in t.numerators[1]:
        x = a.get(v1)
        if x:
            y = b.get(v2)
            if y:
                total += c * x * y
    return total


def twisted_coproduct(f: FormalSeriesTensor, rho: FormalSeriesTensor) -> FormalSeriesTensor:
    """rho * Delta_0(f) * (-rho) in the star group of the doubled algebra."""
    if f.k != 1:
        raise SlotMismatch(f"the coproduct takes a 1-slot series, got {f.k} slots")
    if not (rho.k == 2 and rho.in_m_squared()):
        raise NotInMSquared("rho must be a 2-slot element of m^2")
    return star_conjugate(rho, coproduct_insert(f, ((0, 1),), 2))


def _coproduct_images(rho: FormalSeriesTensor, n: int) -> dict:
    """{vec: twisted_coproduct(x^vec, rho truncated at n)} for every monomial
    of degree <= n, in degree-then-lex order, kept in rho.memo. Only the
    generators are conjugated; each other monomial is one multiply."""
    if ("coproduct_images", n) not in rho.memo:
        alg, rho_n, one = rho.alg, rho.truncate(n), (0,) * rho.alg.dim
        gens = [twisted_coproduct(FormalSeriesTensor.generator(alg, i, n), rho_n)
                for i in range(alg.dim)]
        table = rho.memo["coproduct_images", n] = {
            one: FormalSeriesTensor(alg, 2, n, {(one, one): 1})}
        for vec in (v for d in range(1, n + 1) for v in monomials(alg.dim, d)):
            i = max(j for j, e in enumerate(vec) if e)
            lower = vec[:i] + (vec[i] - 1,) + vec[i + 1:]  # x^vec = x^lower * x_i
            table[vec] = multiply(table[lower], gens[i])
    return rho.memo["coproduct_images", n]


def rho_product(l1: LinearForm, l2: LinearForm, rho: FormalSeriesTensor) -> LinearForm:
    """The convolution (l1 . l2)(f) = (l1 (x) l2)(rho * Delta_0(f) * (-rho)),
    returned as a form of order <= order(l1) + order(l2). f runs over the
    monomials, whose twisted coproducts are products of the generators'
    images: Delta_0 is an algebra map and exp({rho, .}) an algebra
    automorphism of the truncated function algebra ({rho, .} a derivation)."""
    n = l1.order + l2.order
    if rho.N < n:
        raise TruncationTooLow(f"rho truncated at {rho.N}, need degree {n} for this product")
    (D1, items1), (D2, items2) = l1.numerators, l2.numerators
    a = {vec: m * _vec_factorial(vec) for vec, m in items1}
    b = {vec: m * _vec_factorial(vec) for vec, m in items2}
    vals = []  # (vec, numerator, denominator / (D1 * D2))
    for vec, tc in _coproduct_images(rho, n).items():
        val = _pair_two(a, b, tc)
        if val:
            vals.append((vec, val, tc.numerators[0] * _vec_factorial(vec)))
    D = lcm(*(den for _, _, den in vals))
    return LinearForm(l1.alg, {vec: val * (D // den) for vec, val, den in vals}, D1 * D2 * D)


def _monomial_brackets(alg: LieAlgebraSpec, d: int):
    """(va, vb, ((vec, n), ...)) over the monomial pairs whose bracket has
    degree d: {x^va, x^vb} = sum n/Dc x^vec, read off alg.slot_brackets."""
    for da in range(1, d + 1):
        for va in monomials(alg.dim, da):
            for vb in monomials(alg.dim, d + 1 - da):
                yield va, vb, alg.slot_brackets[va, vb][1]


def poisson_traces(alg: LieAlgebraSpec, maxdeg: int) -> list:
    """Basis of forms of order <= maxdeg annihilating all Poisson brackets,
    degree by degree (degree d forms against brackets of degree d)."""
    out = [LinearForm.one(alg)]
    for d in range(1, maxdeg + 1):
        images = {vec: (alg.integer_rows[0], []) for vec in monomials(alg.dim, d)}
        for va, vb, terms in _monomial_brackets(alg, d):
            for vec, n in terms:
                if n:
                    images[vec][1].append(((va, vb), n * _vec_factorial(vec)))
        out += [LinearForm.make(alg, ker) for ker in linsolve.kernel_of(images)]
    return out


def is_poisson_trace(l: LinearForm) -> bool:
    """Direct check that l kills {u, v} for all monomial pairs in range."""
    a = {vec: n * _vec_factorial(vec) for vec, n in l.numerators[1]}
    return not any(sum(a.get(vec, 0) * n for vec, n in terms)
                   for d in range(1, l.order + 1)
                   for _, _, terms in _monomial_brackets(l.alg, d))


def convolution_bracket(rho: FormalSeriesTensor) -> LieAlgebraSpec:
    """The Lie algebra the convolution product induces on dual generators:
    structure constants read off the degree-1 part of form commutators.

    This recovers the dual Lie bracket up to the single global scaling fixed
    by rho's own normalization, and it is the bracket that makes theta a
    morphism of filtered algebras on the nose."""
    if ("convolution_bracket",) in rho.memo:
        return rho.memo[("convolution_bracket",)]
    alg = rho.alg
    gens = [LinearForm.generator(alg, i) for i in range(alg.dim)]
    terms = []
    for i, j in itertools.combinations(range(alg.dim), 2):
        comm = rho_product(gens[i], gens[j], rho) - rho_product(gens[j], gens[i], rho)
        terms += [(i, j, vec.index(1), val) for vec, val in comm.homogeneous_part(1).coeffs.items()]
    rho.memo[("convolution_bracket",)] = LieAlgebraSpec.from_brackets(
        [n + "*" for n in alg.basis_names], terms)
    return rho.memo[("convolution_bracket",)]


def theta(f: LinearForm, rho: FormalSeriesTensor) -> PBWElement:
    """Express a Poisson trace as an element of the dual enveloping algebra:
    pair iterated convolution products of dual generators against monomials
    and solve the unitriangular change of basis. It reads rho only through
    degree max(f.order, 2)."""
    alg = f.alg
    if not is_poisson_trace(f):
        raise NotATrace("theta is defined on Poisson traces only")
    n = f.order
    if rho.N < n:
        raise TruncationTooLow(f"rho truncated at {rho.N}, need degree {n}")

    forms = {(): LinearForm.one(alg)}
    for mono in pbw_basis(alg.dim, n)[1:]:
        forms[mono] = rho_product(forms[mono[:-1]], LinearForm.generator(alg, mono[-1]), rho)

    sol = linsolve.preimage({mono: form.numerators for mono, form in forms.items()}, f.numerators)
    if sol is None:
        raise SingularPairing("convolution pairing matrix failed to solve")
    return PBWElement.make(convolution_bracket(rho), sol)
