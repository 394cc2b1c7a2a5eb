"""PBW enveloping algebras for g and its dual, plus the structures living
on them: the dual Lie bracket induced by r, centers, invariants of S(g*)
(as LinearForms, the restricted-dual forms duality pairs and twists),
the co-Poisson cobracket, and the derivation it generates. An element
names only its algebra: U(g*) is the enveloping algebra of the spec that
dual_bracket (or duality.convolution_bracket) builds, whose basis is x*.

Monomials are non-decreasing tuples of generator indices; straightening
rewrites x_j x_i -> x_i x_j + [x_j, x_i] for j > i. Straightened words (as
integer numerators), and Delta_0, the cobracket and D of monomials are memoized
per algebra, and an algebra hashes its structure constants only once, so
lookups stay cheap. Products and coproducts add up Python ints.
"""
from __future__ import annotations

import itertools

from ._rat import QQ, ZERO
from .core import (LieAlgebraSpec, RMatrix, _compositions, _integer, _SparseVec, _unit,
                   invariant_kernel)
from .errors import AlgebraMismatch, IndexOutOfRange, UnsortedMonomial


class PBWElement(_SparseVec):
    """Element of U(alg), the enveloping algebra of its algebra (g, or g*
    as dual_bracket builds it), in the sorted-monomial basis: the
    _SparseVec state over non-decreasing index tuples."""

    @classmethod
    def make(cls, alg, items) -> "PBWElement":
        items = [(tuple(mono), QQ(c)) for mono, c in dict(items).items()]
        for mono, _ in items:
            if any(mono[i] > mono[i + 1] for i in range(len(mono) - 1)):
                raise UnsortedMonomial(f"PBW monomial {mono} is not sorted")
            if not all(0 <= i < alg.dim for i in mono):
                raise IndexOutOfRange(f"PBW monomial {mono} outside 0..{alg.dim - 1}")
        return cls(alg, *_integer(items))

    @classmethod
    def one(cls, alg) -> "PBWElement":
        return cls(alg, {(): 1})

    @classmethod
    def generator(cls, alg, i: int) -> "PBWElement":
        return cls(alg, {(i,): 1})

    @property
    def filtration(self) -> int:
        return max((len(m) for m, _ in self.numerators[1]), default=0)

    def top_symbol(self) -> dict:
        """Leading-filtration part as exponent vectors (the gr image)."""
        top = self.filtration
        out = {}
        for mono, c in self.coeffs.items():
            if len(mono) == top:
                vec = [0] * self.alg.dim
                for i in mono:
                    vec[i] += 1
                out[tuple(vec)] = out.get(tuple(vec), ZERO) + c
        return {k: v for k, v in out.items() if v}

    def __repr__(self):
        if not self.coeffs:
            return "PBWElement(0)"
        parts = []
        for mono in sorted(self.coeffs, key=lambda m: (len(m), m))[:8]:
            word = "".join(self.alg.basis_names[i] for i in mono) or "1"
            parts.append(f"{self.coeffs[mono]}*{word}")
        more = " + ..." if len(self.coeffs) > 8 else ""
        return f"PBWElement({' + '.join(parts)}{more})"


class LinearForm(_SparseVec):
    """Form on the formal function algebra, supported in degrees <= order:
    the _SparseVec state over exponent vectors."""

    @classmethod
    def make(cls, alg, items) -> "LinearForm":
        items = [(tuple(vec), QQ(c)) for vec, c in dict(items).items()]
        for vec, _ in items:
            if len(vec) != alg.dim:
                raise AlgebraMismatch(f"exponent vector {vec} for an algebra of dim {alg.dim}")
        return cls(alg, *_integer(items))

    @classmethod
    def generator(cls, alg, i: int) -> "LinearForm":
        return cls(alg, {_unit(alg.dim, i): 1})

    @classmethod
    def one(cls, alg) -> "LinearForm":
        return cls(alg, {(0,) * alg.dim: 1})

    @property
    def order(self) -> int:
        return max((sum(v) for v, _ in self.numerators[1]), default=0)

    def homogeneous_part(self, degree: int) -> "LinearForm":
        D, items = self.numerators
        return LinearForm(self.alg, {v: n for v, n in items if sum(v) == degree}, D)

    def __repr__(self):
        terms = []
        for vec in sorted(self.coeffs, key=lambda v: (sum(v), v))[:8]:
            mono = "*".join(
                f"{self.alg.basis_names[i]}^{e}" if e > 1 else self.alg.basis_names[i]
                for i, e in enumerate(vec) if e
            ) or "1"
            terms.append(f"{self.coeffs[vec]}<{mono}>")
        more = " + ..." if len(self.coeffs) > 8 else ""
        return f"LinearForm({' + '.join(terms) or '0'}{more})"


_STRAIGHTEN_MEMO: dict = {}


def _straighten(alg: LieAlgebraSpec, word: tuple) -> dict:
    """Sorted-basis expansion of an arbitrary product word, as integer
    numerators over Dc ** len(word), Dc = alg.integer_rows[0]."""
    key = (alg, word)
    hit = _STRAIGHTEN_MEMO.get(key)
    if hit is not None:
        return hit
    Dc, rows = alg.integer_rows
    for p in range(len(word) - 1):
        j, i = word[p], word[p + 1]
        if j > i:  # x_j x_i = x_i x_j + [x_j, x_i]: the bracket's words are one letter shorter
            out = dict(_straighten(alg, word[:p] + (i, j) + word[p + 2:]))
            for k, c in rows.get(j, {}).get(i, ()):
                for m, n in _straighten(alg, word[:p] + (k,) + word[p + 2:]).items():
                    out[m] = out.get(m, 0) + c * n
            out = {m: n for m, n in out.items() if n}
            break
    else:
        out = {word: Dc ** len(word)}
    _STRAIGHTEN_MEMO[key] = out
    return out


def pbw_product(a: PBWElement, b: PBWElement) -> PBWElement:
    """Product in the enveloping algebra, straightened to the sorted basis."""
    a._check_pair(b, "multiply")
    alg = a.alg
    Dc = alg.integer_rows[0]
    (Da, items_a), (Db, items_b) = a.numerators, b.numerators
    top = a.filtration + b.filtration  # each word's Dc ** len is brought to Dc ** top
    out = {}
    for ma, na in items_a:
        for mb, nb in items_b:
            c = na * nb * Dc ** (top - len(ma) - len(mb))
            for m, n in _straighten(alg, ma + mb).items():
                out[m] = out.get(m, 0) + c * n
    return PBWElement(alg, out, Da * Db * Dc ** top)


def pbw_commutator(a: PBWElement, b: PBWElement) -> PBWElement:
    return pbw_product(a, b) - pbw_product(b, a)


def pbw_basis(dim: int, maxdeg: int):
    """All sorted monomials of length <= maxdeg, graded order."""
    return [mono for ln in range(maxdeg + 1)
            for mono in itertools.combinations_with_replacement(range(dim), ln)]


def center(alg: LieAlgebraSpec, maxdeg: int) -> list:
    """Basis of {z : filtration <= maxdeg, [z, x_i] = 0 for all i}: the
    invariant kernel of the commutators with alg.actors' gens."""
    def act(i, mono):
        return pbw_commutator(PBWElement(alg, {mono: 1}), PBWElement.generator(alg, i)).numerators

    return [PBWElement(alg, nums, D) for D, nums in invariant_kernel(
        alg, pbw_basis(alg.dim, maxdeg), lambda mono: tuple(map(mono.count, range(alg.dim))),
        act)]


def coadjoint_action(alg: LieAlgebraSpec, i: int, vec: tuple) -> tuple:
    """ad*(x_i) on the dual monomial with exponent vector vec, by Leibniz,
    as (Dc, [(vec', n), ...]), n / Dc at vec', n an int;
    ad*(x_i) xi_a = -sum_m c_{im}^a xi_m."""
    Dc, rows = alg.integer_rows
    out: dict = {}  # the coefficients times Dc
    for m, targets in rows.get(i, {}).items():
        for a, n in targets:
            if vec[a]:
                nv = list(vec)
                nv[a] -= 1
                nv[m] += 1
                k = tuple(nv)
                out[k] = out.get(k, 0) - vec[a] * n
    return Dc, [(k, c) for k, c in out.items() if c]


def invariants_s_dual(alg: LieAlgebraSpec, maxdeg: int) -> list:
    """Graded basis of S(g*)^g up to degree maxdeg (the invariant kernel of
    the coadjoint action, one degree at a time), returned as LinearForms."""
    return [LinearForm(alg, nums, D) for d in range(maxdeg + 1)
            for D, nums in invariant_kernel(alg, _compositions(d, alg.dim), lambda mono: mono,
                                            lambda i, mono: coadjoint_action(alg, i, mono))]


def dual_bracket(r: RMatrix) -> LieAlgebraSpec:
    """The Lie algebra on the dual basis with
    [a, b] = ad*(R(b))(a) - ad*(R(a))(b), R(xi) = (id (x) xi)(r), where
    each c_km^a adds -r_kb c_km^a xi_m to ad*(R(xi_b)) xi_a."""
    rows = {k: [(b, w) for (_, b), w in row]
            for k, row in itertools.groupby(r.entries, lambda item: item[0][0])}
    return LieAlgebraSpec.from_brackets(
        [n + "*" for n in r.alg.basis_names],
        [(b, a, m, w * v) for (k, m, a), v in r.alg.brackets for b, w in rows.get(k, ())])


class PBWTensorSquare(_SparseVec):
    """Element of U(alg)^{(x)2} with keys = pairs of sorted monomials."""

    @classmethod
    def make(cls, alg, items) -> "PBWTensorSquare":
        return cls(alg, *_integer((key, QQ(c)) for key, c in dict(items).items()))

    @property
    def filtration(self) -> int:
        return max((len(m1) + len(m2) for (m1, m2), _ in self.numerators[1]), default=0)


def _mult_square(t: PBWTensorSquare, u: PBWTensorSquare) -> PBWTensorSquare:
    alg = t.alg
    Dc = alg.integer_rows[0]
    (Dt, items_t), (Du, items_u) = t.numerators, u.numerators
    top = t.filtration + u.filtration  # as in pbw_product
    out = {}
    for (a1, a2), c in items_t:
        for (b1, b2), d in items_u:
            cd = c * d * Dc ** (top - len(a1) - len(a2) - len(b1) - len(b2))
            right = _straighten(alg, a2 + b2).items()
            for m1, w1 in _straighten(alg, a1 + b1).items():
                for m2, w2 in right:
                    out[m1, m2] = out.get((m1, m2), 0) + cd * w1 * w2
    return PBWTensorSquare(alg, out, Dt * Du * Dc ** top)


def coproduct_square(x: PBWElement) -> PBWTensorSquare:
    """Delta_0(x): generators primitive, extended multiplicatively.
    Subsequences of a sorted monomial stay sorted, so no straightening."""
    D, items = x.numerators
    out = {}
    for mono, c in items:
        n = len(mono)
        for mask in range(1 << n):
            key = (tuple(mono[i] for i in range(n) if mask >> i & 1),
                   tuple(mono[i] for i in range(n) if not mask >> i & 1))
            out[key] = out.get(key, 0) + c
    return PBWTensorSquare(x.alg, out, D)


def _delta_generator(g: LieAlgebraSpec, dual: LieAlgebraSpec, a: int) -> PBWTensorSquare:
    """Cobracket of the dual generator a: the transpose of g's bracket."""
    Dc, rows = g.integer_rows
    return PBWTensorSquare(dual, {((i,), (j,)): n for i, targets in rows.items()
                                  for j, pairs in targets.items()
                                  for tgt, n in pairs if tgt == a}, Dc)


def _product_rule(x: PBWElement, owner: str, g: LieAlgebraSpec, generator_image,
                  product, e, zero):
    """The linear F with F(1) = 0, F(x_a) = generator_image(a) and, on sorted
    monomials, F(x_a m) = product(F(x_a), e(m)) + product(e(x_a), F(m)),
    memoized per monomial on x's algebra under (owner, g, mono)."""
    memo = x.alg.memo

    def of_monomial(mono):
        key = (owner, g, mono)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (zero if not mono else
                               generator_image(mono[0]) if len(mono) == 1 else
                               product(of_monomial(mono[:1]), e(mono[1:]))
                               + product(e(mono[:1]), of_monomial(mono[1:])))
        return hit

    return x.extend_linearly(of_monomial, zero)


def _co_leibniz(x: PBWElement, owner: str, g: LieAlgebraSpec,
                generator_image) -> PBWTensorSquare:
    """_product_rule with e = Delta_0, built once per monomial and algebra:
    the co-Leibniz rule F(yz) = F(y)Delta_0(z) + Delta_0(y)F(z)."""
    alg, memo = x.alg, x.alg.memo

    def delta0(mono):
        key = ("Delta_0", mono)
        if key not in memo:
            memo[key] = coproduct_square(PBWElement(alg, {mono: 1}))
        return memo[key]

    return _product_rule(x, owner, g, generator_image, _mult_square, delta0,
                         PBWTensorSquare.zero(alg))


def copoisson_delta(x: PBWElement, g: LieAlgebraSpec) -> PBWTensorSquare:
    """The co-Poisson cobracket on U(g*): transpose structure constants on
    generators, co-Leibniz rule delta(xy) = delta(x)Delta0(y) + Delta0(x)delta(y)."""
    return _co_leibniz(x, "copoisson_delta", g,
                       lambda a: _delta_generator(g, x.alg, a))


def derivation_D(x: PBWElement, g: LieAlgebraSpec) -> PBWElement:
    """bracket-after-cobracket of the dual algebra on generators, extended
    as a derivation by _product_rule: D(x_a m) = D(x_a) m + x_a D(m)."""
    dual = x.alg

    def generator_image(a):  # the dual bracket of each cobracket term of x_a
        Dd, rows = dual.integer_rows
        Dg, delta = _delta_generator(g, dual, a).numerators
        out = {}
        for ((i,), (j,)), c in delta:
            for tgt, w in rows.get(i, {}).get(j, ()):
                out[(tgt,)] = out.get((tgt,), 0) + c * w
        return PBWElement(dual, out, Dg * Dd)

    return _product_rule(x, "derivation_D", g, generator_image, pbw_product,
                         lambda mono: PBWElement(dual, {mono: 1}), PBWElement.zero(dual))
