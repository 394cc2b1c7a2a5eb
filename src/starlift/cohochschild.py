"""The co-Hochschild complex (S^{>0}(g)^{(x)k}, d) and its invariant
subcomplex: differential, cocycle checks, coboundary solving, and
cohomology dimensions.

The differential on a k-cochain c is

    d(c) = c^{2,...,k+1} + sum_{i=1}^{k} (-1)^i c^{1,...,(i i+1),...,k+1}
           + (-1)^{k+1} c^{1,...,k}

(slot labels 1-based as usual for insertion notation). On slot-positive
cochains every unit-filled term cancels, so d is the signed sum of the
slots' reduced coproducts (_d_integer); _d_raw keeps the k + 2 faces.
Cohomology is wedge^k(g) (invariantly: wedge^k(g)^g) concentrated in
degree N = k, realized by alt_project.
"""
from __future__ import annotations

import itertools
from collections import Counter
from functools import cache, lru_cache
from math import factorial, perm, prod
from operator import itemgetter

from . import linsolve
from .core import (
    FormalSeriesTensor,
    LieAlgebraSpec,
    _compositions,
    _Record,
    _splits,
    alt_project,
    combine,
    coproduct_insert,
    g_action,
    invariant_kernel,
    is_invariant,
)
from .errors import (NotACocycle, NotHomogeneous, NotInMTensor, NotInvariant,
                     Obstruction, RankCertificate, SlotMismatch)


class Cochain(_Record):
    """Homogeneous element of S^{>0}(g)^{(x)k} in one total degree."""

    _fields = ("k", "degree", "value")

    def __init__(self, k: int, degree: int, value: FormalSeriesTensor):
        self.__dict__.update(k=k, degree=degree, value=value)

    @classmethod
    def make(cls, k: int, degree: int, value: FormalSeriesTensor) -> "Cochain":
        if value.k != k:
            raise SlotMismatch(f"a {value.k}-slot value cannot be a {k}-cochain")
        if not value.in_m_tensor():
            raise NotInMTensor("cochain slots must be positive")
        if any(deg != degree for deg in value.numerator_buckets):
            raise NotHomogeneous(f"cochain must be homogeneous of degree {degree}")
        return cls(k, degree, value)


def monomials(dim: int, degree: int):
    """All exponent vectors over dim variables with the given total degree,
    in lexicographic order."""
    return list(_compositions(degree, dim))


def _compositions_positive(total: int, parts: int):
    """The ways to write total as `parts` positive integers, in lex order."""
    return [tuple(a + 1 for a in c) for c in _compositions(total - parts, parts)]


@cache
def _d_faces(k: int) -> tuple:
    """(sign, 0-based blocks) of the k + 2 terms of d on k-cochains, in order."""
    faces = [(1, tuple((s + 1,) for s in range(k)))]
    for i in range(1, k + 1):
        # slots before i - 1 stay, slot i - 1 splits over i - 1 and i, the rest shift
        blocks = [(s,) for s in range(i - 1)] + [(i - 1, i)] + [(s + 1,) for s in range(i, k)]
        faces.append(((-1) ** i, tuple(blocks)))
    faces.append(((-1) ** (k + 1), tuple((s,) for s in range(k))))
    return tuple(faces)


def _d_raw(f: FormalSeriesTensor) -> FormalSeriesTensor:
    """The differential on any tensor, unit slots allowed (no validation):
    the k + 2 signed faces in one combine."""
    return combine([(sign, coproduct_insert(f, blocks, f.k + 1))
                    for sign, blocks in _d_faces(f.k)])


def _d_integer(vec: tuple) -> tuple:
    """d of sum n / D x^key over vec = (D, [(key, n), ...]), slot-positive
    keys, in the same form; no algebra enters: the sum over 0-based slots s
    of (-1)^(s+1) times the splits of slot s into two nonconstant parts."""
    out = {}
    for key, n in vec[1]:
        for s, vec_s in enumerate(key):
            for (a, b), w in _splits(vec_s, 2):
                if any(a) and any(b):
                    nk = key[:s] + (a, b) + key[s + 1:]
                    out[nk] = out.get(nk, 0) + (n if s % 2 else -n) * w
    return vec[0], [(nk, m) for nk, m in out.items() if m]


def _d_monomial(key) -> tuple:
    """d of the monomial x^key as (1, [(key, integer), ...])."""
    return _d_integer((1, [(key, 1)]))


def _monomial_fst(alg, key, N):
    return FormalSeriesTensor(alg, len(key), N, {key: 1})


def _weight_zero_keys(alg: LieAlgebraSpec, degs) -> list:
    """The keys of slot degrees degs whose multidegree has weight zero, in
    itertools.product order: slot weights add, so each prefix meets the last
    slot's monomials of the weight that cancels its own."""
    slots = [[(vec, alg.weight(vec)) for vec in monomials(alg.dim, d)] for d in degs]
    last, zero = {}, alg.weight((0,) * alg.dim)
    for vec, w in slots.pop():
        last.setdefault(tuple(-x for x in w), []).append(vec)
    return [(*(vec for vec, _ in prefix), vec) for prefix in itertools.product(*slots)
            for vec in last.get(tuple(map(sum, zip(zero, *(w for _, w in prefix)))), ())]


def invariant_basis(alg: LieAlgebraSpec, k: int, N: int):
    """Basis of ((S^{>0}(g))^{(x)k})^g_N as a list of FormalSeriesTensor,
    deterministic: the kernel over the weight-zero keys of alg.actors' gens.
    g keeps slot degrees and acts slot by slot, so one kernel is solved per
    orbit of slot-degree compositions under slot permutations, at its sorted
    composition, first in the orbit; the others move the slots of its (D,
    {key: n}) vectors and re-reduce them, each echelon row over its pivot
    entry, with pivots at their largest keys as kernel_of's (no gens: moved
    unit vectors are). Sorted by that key, the pairs become the series that
    one kernel over all keys gives."""
    vecs, kernels = [], {}
    monomial = lru_cache(1)(lambda key: _monomial_fst(alg, key, N))  # gens act in turn
    for degs in _compositions_positive(N, k):
        rep = tuple(sorted(degs))
        if rep == degs:
            kernels[rep] = invariant_kernel(
                alg, _weight_zero_keys(alg, degs), lambda key: tuple(map(sum, zip(*key))),
                lambda i, key: g_action(i, monomial(key)).numerators)
            vecs += kernels[rep]
            continue
        order = sorted(range(k), key=degs.__getitem__)  # rep's slot i moves to slot order[i]
        move = itemgetter(*sorted(range(k), key=order.__getitem__))  # j reads i, order[i] = j
        moved = [(D, {move(key): n for key, n in v.items()}) for D, v in kernels[rep]]
        if alg.actors[1]:
            cols = sorted({key for _, v in moved for key in v}, reverse=True)
            at = {key: j for j, key in enumerate(cols)}
            echelon = linsolve.echelonize({at[key]: n for key, n in v.items()} for _, v in moved)
            moved = [(row[c], {cols[j]: n for j, n in row.items()}) for c, row in echelon.items()]
        vecs += moved
    return [FormalSeriesTensor(alg, k, N, v, D) for D, v in sorted(vecs, key=lambda p: max(p[1]))]


def _multidegree_blocks(keys, dim: int) -> dict:
    """Group k-slot keys by multidegree (exponent sums over all slots).
    d preserves multidegree, so each block is an independent piece of d."""
    blocks = {}
    for key in keys:
        tot = tuple(sum(vec[i] for vec in key) for i in range(dim))
        blocks.setdefault(tot, []).append(key)
    return blocks


def _multidegree_keys(tot, k: int) -> list:
    """The slot-positive k-slot keys of multidegree tot, sorted."""
    return sorted(key for key, _ in _splits(tot, k) if all(map(any, key)))


def _exponent_shapes(dim: int, N: int) -> list:
    """(shape, count) per partition shape of N into at most dim parts, count
    being the number of multidegrees over dim variables whose nonzero parts
    sort to shape: dim! / ((dim - len(shape))! prod mult!)."""
    def parts(n, top):
        if n == 0:
            yield ()
        for first in range(min(n, top), 0, -1):
            yield from ((first,) + rest for rest in parts(n - first, first))
    return [(shape, perm(dim, len(shape)) // prod(map(factorial, Counter(shape).values())))
            for shape in parts(N, N) if len(shape) <= dim]


def _dim_rank(alg, k: int, N: int, invariant_only: bool) -> tuple:
    """(dimension, rank of d) of the k-cochains in degree N, N >= k >= 1, the
    invariant ones when flagged; computed once per algebra instance. On all
    cochains d splits by multidegree, reads no algebra, and commutes with
    every permutation of the variables; a multidegree block uses only the
    variables with a nonzero exponent. So a block's rank depends only on its
    exponent shape, and one block per shape is eliminated."""
    key = ("dim_rank", k, N, invariant_only)
    if key not in alg.memo:
        if invariant_only:
            basis = invariant_basis(alg, k, N)
            alg.memo[key] = (len(basis), linsolve.rank_of(_d_raw(v).numerators for v in basis))
        else:
            blocks = [(count, _multidegree_keys(shape, k))
                      for shape, count in _exponent_shapes(alg.dim, N)]
            alg.memo[key] = (sum(count * len(keys) for count, keys in blocks),
                             sum(count * linsolve.rank_of(map(_d_monomial, keys))
                                 for count, keys in blocks))
    return alg.memo[key]


def cohomology_dimension(alg: LieAlgebraSpec, k: int, N: int,
                         invariant_only: bool = False) -> int:
    """dim of ker(d)/im(d) at slot count k, homogeneous degree N."""
    if k < 1 or N < 1:
        raise ValueError("need k >= 1 and N >= 1")
    if N < k:
        return 0
    dim, rank = _dim_rank(alg, k, N, invariant_only)
    return dim - rank - (_dim_rank(alg, k - 1, N, invariant_only)[1] if k >= 2 else 0)


def solve_coboundary(c: Cochain, invariant_only: bool = False) -> Cochain:
    """Find beta with d(beta) = c (restricted to invariants when flagged).

    Raises NotACocycle if d(c) != 0; raises Obstruction carrying the
    alt_project class when N = k and the class is nonzero; a failed solve
    at N > k raises RankCertificate since the cohomology there vanishes.
    """
    alg = c.value.alg
    k, N = c.k, c.degree
    if k < 2:
        raise ValueError("solving needs at least 2 slots")
    if not _d_raw(c.value).is_zero():
        raise NotACocycle(f"d(c) != 0 for the given {k}-cochain of degree {N}")
    if invariant_only and not is_invariant(c.value):
        raise NotInvariant("cochain is not g-invariant")

    target, terms, D0 = c.value.numerators, [(1, FormalSeriesTensor.zero(alg, k - 1, N))], 1
    if invariant_only:
        basis = invariant_basis(alg, k - 1, N)
        D0, sol = _preimage(c, dict(enumerate(_d_integer(v.numerators) for v in basis)), target)
        terms += [(n, basis[j]) for j, n in sol.items()]
    else:
        # a multidegree block's columns are the monomials, so its solution
        # holds the coefficients
        D, nums = target[0], dict(target[1])
        for tot, rhs_keys in sorted(_multidegree_blocks(nums, alg.dim).items()):
            images = {key: _d_monomial(key) for key in _multidegree_keys(tot, k - 1)}
            Db, sol = _preimage(c, images, (D, [(key, nums[key]) for key in rhs_keys]))
            terms.append((1, FormalSeriesTensor(alg, k - 1, N, sol, Db)))
    return Cochain.make(k - 1, N, combine(terms, D0))


def _preimage(c: Cochain, images: dict, target: tuple) -> tuple:
    """linsolve.preimage(images, target), raising as solve_coboundary
    documents when there is none."""
    sol = linsolve.preimage(images, target)
    if sol is not None:
        return sol
    if c.degree == c.k:
        cls = alt_project(c.value)
        raise Obstruction(
            f"nonzero class in degree {c.degree} = slot count", cls=cls
        )
    raise RankCertificate(
        f"solve failed at degree {c.degree} > slots {c.k}: "
        "cohomology should vanish there"
    )
