"""PBW enveloping algebras for g and its dual, plus the structures living
on them: the dual Lie bracket induced by r, centers, invariants of S(g*)
(as LinearForms, the restricted-dual forms duality pairs and twists),
the co-Poisson cobracket, and the derivation it generates.

Monomials are non-decreasing tuples of generator indices; straightening
rewrites x_j x_i -> x_i x_j + [x_j, x_i] for j > i. Straightened words,
monomial cobrackets and D on generators are memoized per algebra, and an
algebra hashes its structure constants only once, so lookups stay cheap.
"""
from __future__ import annotations

import itertools

from . import linsolve
from ._rat import QQ, ZERO
from .core import LieAlgebraSpec, RMatrix, _compositions, _SparseVec
from .errors import AlgebraMismatch, IndexOutOfRange, UnsortedMonomial

TAG_G = "U(g)"
TAG_GSTAR = "U(g*)"


class PBWElement(_SparseVec):
    """Element of an enveloping algebra in the sorted-monomial basis."""

    _fields = ("alg", "tag", "coeffs")  # coeffs: non-decreasing index tuple -> rational

    def __init__(self, alg: LieAlgebraSpec, tag: str, coeffs: dict):
        self.__dict__.update(alg=alg, tag=tag, coeffs=coeffs)

    @classmethod
    def make(cls, alg, tag, items) -> "PBWElement":
        coeffs = {}
        for mono, c in dict(items).items():
            mono = tuple(mono)
            if any(mono[i] > mono[i + 1] for i in range(len(mono) - 1)):
                raise UnsortedMonomial(f"PBW monomial {mono} is not sorted")
            if not all(0 <= i < alg.dim for i in mono):
                raise IndexOutOfRange(f"PBW monomial {mono} outside 0..{alg.dim - 1}")
            c = QQ(c)
            if c:
                coeffs[mono] = c
        return cls(alg, tag, coeffs)

    @classmethod
    def one(cls, alg, tag) -> "PBWElement":
        return cls(alg, tag, {(): QQ(1)})

    @classmethod
    def generator(cls, alg, tag, i: int) -> "PBWElement":
        return cls(alg, tag, {(i,): QQ(1)})

    @property
    def filtration(self) -> int:
        return max((len(m) for m in self.coeffs), default=0)

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

    def _frame(self) -> tuple:
        return self.alg, self.tag

    def _check_pair(self, other, op="combine"):
        if self.tag != other.tag or self.alg != other.alg:
            raise AlgebraMismatch(
                f"cannot {op} {self.tag} element with {other.tag} element"
            )

    def __repr__(self):
        if not self.coeffs:
            return f"PBWElement<{self.tag}>(0)"
        parts = []
        for mono in sorted(self.coeffs, key=lambda m: (len(m), m))[:8]:
            word = "".join(self.alg.basis_names[i] for i in mono) or "1"
            parts.append(f"{self.coeffs[mono]}*{word}")
        more = " + ..." if len(self.coeffs) > 8 else ""
        return f"PBWElement<{self.tag}>({' + '.join(parts)}{more})"


class LinearForm(_SparseVec):
    """Form on the formal function algebra, supported in degrees <= order."""

    _fields = ("alg", "coeffs")  # coeffs: exponent vector -> rational

    def __init__(self, alg: LieAlgebraSpec, coeffs: dict):
        self.__dict__.update(alg=alg, coeffs=coeffs)

    @classmethod
    def make(cls, alg, items) -> "LinearForm":
        coeffs = {}
        for vec, c in dict(items).items():
            vec = tuple(vec)
            if len(vec) != alg.dim:
                raise AlgebraMismatch(f"exponent vector {vec} for an algebra of dim {alg.dim}")
            c = QQ(c)
            if c:
                coeffs[vec] = c
        return cls(alg, coeffs)

    @classmethod
    def generator(cls, alg, i: int) -> "LinearForm":
        vec = tuple(1 if j == i else 0 for j in range(alg.dim))
        return cls.make(alg, {vec: QQ(1)})

    @classmethod
    def one(cls, alg) -> "LinearForm":
        return cls.make(alg, {(0,) * alg.dim: QQ(1)})

    @property
    def order(self) -> int:
        return max((sum(v) for v in self.coeffs), default=0)

    def _frame(self) -> tuple:
        return (self.alg,)

    def _check_pair(self, other, op="combine"):
        if self.alg != other.alg:
            raise AlgebraMismatch(f"cannot {op} forms on different algebras")

    def homogeneous_part(self, degree: int) -> "LinearForm":
        return LinearForm(self.alg,
                          {v: c for v, c in self.coeffs.items() if sum(v) == degree})

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
    """Sorted-basis expansion of an arbitrary product word."""
    key = (alg, word)
    hit = _STRAIGHTEN_MEMO.get(key)
    if hit is not None:
        return hit
    out = None
    for p in range(len(word) - 1):
        j, i = word[p], word[p + 1]
        if j <= i:
            continue
        out = {}
        swapped = word[:p] + (i, j) + word[p + 2:]
        for m, c in _straighten(alg, swapped).items():
            out[m] = out.get(m, ZERO) + c
        for k, c in alg.bracket_rows.get(j, {}).get(i, ()):
            shorter = word[:p] + (k,) + word[p + 2:]
            for m, c2 in _straighten(alg, shorter).items():
                v = out.get(m, ZERO) + c * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        break
    if out is None:
        out = {word: QQ(1)}
    _STRAIGHTEN_MEMO[key] = out
    return out


def pbw_product(a: PBWElement, b: PBWElement) -> PBWElement:
    """Product in the enveloping algebra, straightened to the sorted basis."""
    a._check_pair(b, "multiply")
    out = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            c = ca * cb
            for m, cw in _straighten(a.alg, ma + mb).items():
                v = out.get(m, ZERO) + c * cw
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
    return PBWElement(a.alg, a.tag, out)


def pbw_commutator(a: PBWElement, b: PBWElement) -> PBWElement:
    return pbw_product(a, b) - pbw_product(b, a)


def sorted_monomials(dim: int, length: int):
    return list(itertools.combinations_with_replacement(range(dim), length))


def pbw_basis(dim: int, maxdeg: int):
    """All sorted monomials of length <= maxdeg, graded order."""
    return [mono for ln in range(maxdeg + 1) for mono in sorted_monomials(dim, ln)]


def center(alg: LieAlgebraSpec, maxdeg: int, tag: str = TAG_G) -> list:
    """Basis of {z : filtration <= maxdeg, [z, x_i] = 0 for all i}: the
    kernel over the weight-zero monomials of the commutators with
    alg.actors' gens (see LieAlgebraSpec.actors)."""
    basis = [mono for mono in pbw_basis(alg.dim, maxdeg)
             if alg.weight_zero(tuple(map(mono.count, range(alg.dim))))]
    images = []
    for mono in basis:
        z = PBWElement(alg, tag, {mono: QQ(1)})
        col = {}
        for i in alg.actors[1]:
            for m, c in pbw_commutator(z, PBWElement.generator(alg, tag, i)).coeffs.items():
                col[(i, m)] = c
        images.append(col)
    out = []
    for vec in linsolve.kernel_of(images):
        out.append(PBWElement.make(alg, tag,
                                   {basis[j]: c for j, c in vec.items()}))
    return out


def coadjoint_action(alg: LieAlgebraSpec, i: int, form: dict) -> dict:
    """ad*(x_i) on a polynomial in the dual variables, by Leibniz.

    form maps exponent vectors over the dual basis to rationals;
    ad*(x_i) xi_a = -sum_m c_{im}^a xi_m.
    """
    gen_img = [dict() for _ in range(alg.dim)]
    for m, targets in alg.bracket_rows.get(i, {}).items():
        for a, c in targets:
            gen_img[a][m] = gen_img[a].get(m, ZERO) - c
    out: dict = {}
    for vec, coef in form.items():
        for a in range(alg.dim):
            if not vec[a]:
                continue
            for m, c in gen_img[a].items():
                nv = list(vec)
                nv[a] -= 1
                nv[m] += 1
                k = tuple(nv)
                v = out.get(k, ZERO) + coef * vec[a] * c
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
    return out


def invariants_s_dual(alg: LieAlgebraSpec, maxdeg: int) -> list:
    """Graded basis of S(g*)^g up to degree maxdeg (coadjoint kernel per
    degree over the weight-zero monomials, acting by alg.actors' gens),
    returned as LinearForms."""
    out = []
    for d in range(maxdeg + 1):
        monos = [mono for mono in _compositions(d, alg.dim) if alg.weight_zero(mono)]
        images = []
        for mono in monos:
            col = {}
            for i in alg.actors[1]:
                for m, c in coadjoint_action(alg, i, {mono: QQ(1)}).items():
                    col[(i, m)] = c
            images.append(col)
        for vec in linsolve.kernel_of(images):
            out.append(LinearForm.make(alg, {monos[j]: c for j, c in vec.items()}))
    return out


def dual_bracket(r: RMatrix) -> LieAlgebraSpec:
    """The Lie algebra on the dual basis with
    [a, b] = ad*(R(b))(a) - ad*(R(a))(b), R(xi) = (id (x) xi)(r)."""
    alg = r.alg
    dim = alg.dim

    # R(xi_b) = sum_k r_{k b} x_k
    def rmap(b):
        return {k: r.entries[k][b] for k in range(dim) if r.entries[k][b]}

    # ad*(x_k) xi_a = -sum_m c_{km}^a xi_m
    def coad(k, a):
        out = {}
        for m, targets in alg.bracket_rows.get(k, {}).items():
            for tgt, c in targets:
                if tgt == a:
                    out[m] = out.get(m, ZERO) - c
        return out

    c: list = []
    for a in range(dim):
        row = []
        for b in range(dim):
            acc = [ZERO] * dim
            for k, w in rmap(b).items():
                for m, v in coad(k, a).items():
                    acc[m] += w * v
            for k, w in rmap(a).items():
                for m, v in coad(k, b).items():
                    acc[m] -= w * v
            row.append(tuple(acc))
        c.append(tuple(row))

    return LieAlgebraSpec(
        dim=dim,
        basis_names=tuple(n + "*" for n in alg.basis_names),
        c=tuple(c),
    ).validate()


class PBWTensorSquare(_SparseVec):
    """Element of U(a)^{(x)2} with keys = pairs of sorted monomials."""

    _fields = PBWElement._fields
    __init__ = PBWElement.__init__
    _frame = PBWElement._frame
    _check_pair = PBWElement._check_pair


def _mult_square(t: PBWTensorSquare, u: PBWTensorSquare) -> PBWTensorSquare:
    out = PBWTensorSquare.zero(t.alg, t.tag)
    for (a1, a2), c in t.coeffs.items():
        for (b1, b2), d in u.coeffs.items():
            left = _straighten(t.alg, a1 + b1)
            right = _straighten(t.alg, a2 + b2)
            cd = c * d
            for m1, w1 in left.items():
                for m2, w2 in right.items():
                    out.add_term((m1, m2), cd * w1 * w2)
    return out


def coproduct_square(x: PBWElement) -> PBWTensorSquare:
    """Delta_0(x): generators primitive, extended multiplicatively.
    Subsequences of a sorted monomial stay sorted, so no straightening."""
    out = PBWTensorSquare.zero(x.alg, x.tag)
    for mono, c in x.coeffs.items():
        n = len(mono)
        for mask in range(1 << n):
            left = tuple(mono[i] for i in range(n) if mask >> i & 1)
            right = tuple(mono[i] for i in range(n) if not mask >> i & 1)
            out.add_term((left, right), c)
    return out


def _delta_generator(g: LieAlgebraSpec, dual: LieAlgebraSpec, tag: str,
                     a: int) -> PBWTensorSquare:
    """Cobracket of the dual generator a: the transpose of g's bracket."""
    out = PBWTensorSquare.zero(dual, tag)
    for i, targets in g.bracket_rows.items():
        for j, pairs in targets.items():
            if i >= j:
                continue
            for tgt, c in pairs:
                if tgt == a:
                    out.add_term(((i,), (j,)), c)
                    out.add_term(((j,), (i,)), -c)
    return out


def copoisson_delta(x: PBWElement, g: LieAlgebraSpec) -> PBWTensorSquare:
    """The co-Poisson cobracket on U(g*): transpose structure constants on
    generators, co-Leibniz rule delta(xy) = delta(x)Delta0(y) + Delta0(x)delta(y)."""
    dual = x.alg
    out = PBWTensorSquare.zero(dual, x.tag)
    memo = dual.memo

    def of_monomial(mono):
        key = ("copoisson_delta", g, x.tag, mono)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if not mono:
            res = PBWTensorSquare.zero(dual, x.tag)
        elif len(mono) == 1:
            res = _delta_generator(g, dual, x.tag, mono[0])
        else:
            head = PBWElement.generator(dual, x.tag, mono[0])
            rest = PBWElement.make(dual, x.tag, {mono[1:]: QQ(1)})
            res = _mult_square(of_monomial((mono[0],)), coproduct_square(rest))
            res = res + _mult_square(coproduct_square(head), of_monomial(mono[1:]))
        memo[key] = res
        return res

    for mono, c in x.coeffs.items():
        out = out + of_monomial(mono).scale(c)
    return out


def derivation_D(x: PBWElement, g: LieAlgebraSpec) -> PBWElement:
    """bracket-after-cobracket of the dual algebra, extended as a derivation."""
    dual = x.alg
    key = ("derivation_D", g, x.tag)
    gen_img = dual.memo.get(key)
    if gen_img is None:
        gen_img = []
        for a in range(dual.dim):
            acc = PBWElement.zero(dual, x.tag)
            delta = _delta_generator(g, dual, x.tag, a)
            for ((m1, m2), c) in delta.coeffs.items():
                i, j = m1[0], m2[0]
                for tgt, w in dual.bracket_rows.get(i, {}).get(j, ()):
                    acc = acc + PBWElement.make(dual, x.tag, {(tgt,): c * w})
            gen_img.append(acc)
        dual.memo[key] = gen_img

    out = PBWElement.zero(dual, x.tag)
    for mono, c in x.coeffs.items():
        for t in range(len(mono)):
            pre = PBWElement.make(dual, x.tag, {mono[:t]: QQ(1)})
            post = PBWElement.make(dual, x.tag, {mono[t + 1:]: QQ(1)})
            term = pbw_product(pbw_product(pre, gen_img[mono[t]]), post)
            out = out + term.scale(c)
    return out
