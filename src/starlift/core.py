"""Lie algebra data and sparse polynomial tensors.

The ground ring is Q throughout. Elements of S(g)^{(x)k} truncated at
total degree N are stored sparsely: a key is a k-tuple of exponent
vectors (one per tensor slot), the value a nonzero rational. All
operations are pure and drop terms of total degree > N, so results are
always read "mod degree N+1".
"""
from __future__ import annotations

import itertools
import json
from functools import cache, cached_property
from math import factorial, gcd, lcm, prod
from operator import itemgetter

from . import linsolve
from ._rat import QQ, ZERO, rat
from .errors import (
    AlgebraMismatch,
    AntisymmetryViolation,
    BlockOverlap,
    IndexOutOfRange,
    JacobiViolation,
    NotAntisymmetric,
    ParseError,
    SlotMismatch,
    TruncationMismatch,
)

Vec = tuple  # exponent vector over the basis of g
Key = tuple  # k-tuple of Vec
_first = itemgetter(0)


class _Record:
    """Immutable record: __init__ fills the ``_fields`` through __dict__,
    and assigning or deleting an attribute later raises AttributeError
    (cached_property writes __dict__ itself). Records are equal, and hash,
    as the tuples of their field values."""

    _fields = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self._values() == other._values()

    @cached_property
    def _hash(self) -> int:
        return hash(self._values())

    def __hash__(self):
        # Memos key on records; an algebra's structure constants or an r's
        # entries are hashed once, not per lookup.
        return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class LieAlgebraSpec(_Record):
    """A finite-dimensional Lie algebra over Q given by structure constants:
    brackets = (((i, j, k), c_ijk), ...) over the nonzero c_ijk, the
    coefficient of x_k in [x_i, x_j], in index order."""

    _fields = ("dim", "basis_names", "brackets")

    def __init__(self, dim: int, basis_names: tuple, brackets: tuple):
        self.__dict__.update(dim=dim, basis_names=basis_names, brackets=brackets)

    @classmethod
    def from_brackets(cls, basis_names, terms) -> "LieAlgebraSpec":
        """The validated algebra on basis_names whose brackets are the sums
        of the terms (i, j, k, v): each adds v x_k to [x_i, x_j] and -v x_k
        to [x_j, x_i]."""
        brackets = _nonzero(pair for i, j, k, v in terms
                            for pair in (((i, j, k), v), ((j, i, k), -v)))
        return cls(len(basis_names), tuple(basis_names), brackets).validate()

    @cached_property
    def integer_rows(self):
        """(Dc, rows): rows[i][j] = ((k, n), ...) over the nonzero c_ijk =
        n / Dc in index order, Dc the lcm of their denominators."""
        nums, Dc = _integer(self.brackets)
        rows = {}
        for (i, j, k), n in nums.items():
            row = rows.setdefault(i, {})
            row[j] = row.get(j, ()) + ((k, n),)
        return Dc, rows

    @cached_property
    def slot_brackets(self) -> "_SlotBrackets":
        # On the instance: a module memo keyed by the algebra would compare
        # all structure constants whenever an equal spec was loaded before.
        return _SlotBrackets(self.integer_rows[1])

    @cached_property
    def memo(self) -> dict:
        """Per-instance cache for data other modules derive from this
        algebra, keyed by tuples that start with the owner's name."""
        return {}

    @cached_property
    def is_abelian(self) -> bool:
        return not self.integer_rows[1]

    @cached_property
    def _integer_weights(self) -> dict:
        """{i: ((j, n_j), ...)} over the nonzero n_j, ad(x_i) x_j = n_j / Dc x_j, i diagonal."""
        rows = self.integer_rows[1]
        diagonal = [i for i in range(self.dim)
                    if all(len(ent) == 1 and ent[0][0] == j for j, ent in rows.get(i, {}).items())]
        return {i: tuple((j, ent[0][1]) for j, ent in rows.get(i, {}).items()) for i in diagonal}

    @cached_property
    def actors(self) -> tuple:
        """(diagonal, gens): the indices i with ad(x_i) x_j = w_j x_j for every
        j, weighted by _integer_weights, and the other indices, taken greedily
        in index order until they and the diagonal ones generate g as a Lie
        algebra. A diagonal x_i scales x^a by sum a_j w_j, and if x and y act
        by 0 so does [x, y]: an element is g-invariant iff it has weight zero
        and every gens element kills it."""
        rows, weights = self.integer_rows[1], self._integer_weights
        gens = []
        span = [(1, [(i, 1)]) for i in weights]  # the actors' subalgebra, times powers of Dc
        for i in range(self.dim):
            if i in weights or linsolve.rank_of(span + [(1, [(i, 1)])]) == len(span):
                continue
            gens.append(i)
            closed = len(span)  # span[:closed] is closed under ad of the earlier actors
            span.append((1, [(i, 1)]))
            for n, (_, u) in enumerate(span):  # grows until closed under ad of every actor
                for a in ([i] if n < closed else [*weights, *gens]):
                    w = {}
                    for b, cb in u:
                        for k, v in rows.get(a, {}).get(b, ()):
                            w[k] = w.get(k, 0) + cb * v
                    w = (1, [(k, v) for k, v in w.items() if v])
                    if w[1] and linsolve.rank_of(span + [w]) > len(span):
                        span.append(w)
        return tuple(weights), tuple(gens)

    def weight_zero(self, vec) -> bool:
        """Whether every diagonal actor kills x^vec (vec an exponent vector)."""
        return not any(sum(vec[j] * n for j, n in lam) for lam in self._integer_weights.values())

    def validate(self):
        bad = _asymmetry(self.brackets)
        if bad is not None:
            raise AntisymmetryViolation("c[{0}][{1}][{2}] != -c[{1}][{0}][{2}]".format(*bad),
                                        triple=bad)
        # [x_i,[x_j,x_l]] + [x_j,[x_l,x_i]] + [x_l,[x_i,x_j]] = 0. With c
        # antisymmetric the Jacobiator is alternating, so the lex-first
        # failing ordered triple is sorted: checking i < j < l suffices, and
        # only where two of them are bracketed, as every term needs that.
        # The sums are over integer rows, so each is Dc^2 times the Jacobiator.
        rows = self.integer_rows[1]
        reached = {tuple(sorted((b, e, l))) for b, row in rows.items() for e in row
                   for l in range(self.dim) if l != b and l != e}
        for i, j, l in sorted(reached):
            acc = {}
            for a, b, e in ((i, j, l), (j, l, i), (l, i, j)):
                for m, u in rows.get(b, {}).get(e, ()):
                    for k, v in rows.get(a, {}).get(m, ()):
                        acc[k] = acc.get(k, 0) + u * v
            if any(acc.values()):
                raise JacobiViolation(
                    f"Jacobi fails on basis triple ({i},{j},{l})",
                    triple=(i, j, l),
                )
        return self


class _SlotBrackets(dict):
    """(af, ag) -> (af + ag, ((vec, n), ...)): the one-slot Lie-Poisson
    bracket {x^af, x^ag} = sum n/Dc x^vec, built on first lookup. Terms are
    merged per vec in first-hit order; a merged zero is kept, so callers
    insert output keys in the order the unmerged sum would."""

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def __missing__(self, pair):
        af, ag = pair
        base = tuple(a + b for a, b in zip(af, ag))
        terms = {}
        for i, ai in enumerate(af):
            row = self.rows.get(i) if ai else None
            if row is None:
                continue
            for j, aj in enumerate(ag):
                ent = row.get(j) if aj else None
                if ent is None:
                    continue
                for tgt, n in ent:
                    vec = list(base)
                    vec[i] -= 1
                    vec[j] -= 1
                    vec[tgt] += 1
                    vec = tuple(vec)
                    terms[vec] = terms.get(vec, 0) + ai * aj * n
        self[pair] = entry = (base, tuple(terms.items()))
        return entry


def _parse_rat(text, where: str):
    try:
        return rat(text)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _is_index(v, dim: int) -> bool:
    """An integer, not a boolean, in 0..dim-1."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < dim


def _as_list(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{what} must be a list, got {value!r}")
    return value


# The largest dim load_lie_algebra accepts, checked before anything of that
# size is built: input policy, not a cost. `validate` with a two-entry r
# grows about linearly in dim, 2-5 ms and 0.4 MB traced at dim 1000, 7-15 ms
# and 1.6 MB at 4000 (in process, one Intel Xeon core, Fraction backend).
MAX_DIM = 1000


def load_lie_algebra(source) -> "tuple[LieAlgebraSpec, RMatrix | None]":
    """Parse and validate a Lie algebra input.

    ``source`` may be a path, a JSON string, or an already-decoded dict
    with fields ``dim``, ``basis``, ``brackets`` (entries
    [i, j, [[k, "p/q"], ...]]), and optionally ``r`` ([i, j, "p/q"] entries,
    repeats adding up) plus ``kind``, and no other field. Returns the
    validated algebra and the r matrix (None when absent).
    """
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                with open(text) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError(f"cannot read input file: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc

    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    unknown = [key for key in data if key not in ("dim", "basis", "brackets", "r", "kind")]
    if unknown:
        raise ParseError(f"unknown field: {unknown[0]!r}")
    try:
        dim = data["dim"]
    except KeyError:
        raise ParseError("missing field: dim") from None
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError(f"dim must be a nonnegative integer, got {dim!r}")
    if dim > MAX_DIM:
        raise ParseError(f"dim must be at most {MAX_DIM}, got {dim}")
    basis = data.get("basis", [f"x{i}" for i in range(dim)])
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(b, str) for b in basis)):
        raise ParseError("basis must list one name per dimension")
    if len(set(basis)) != dim:
        raise ParseError(f"basis names must be distinct, got {basis!r}")

    summands = []
    for ent in _as_list(data.get("brackets", []), "brackets"):
        try:
            i, j, terms = ent
        except (TypeError, ValueError):
            raise ParseError(f"malformed bracket entry: {ent!r}") from None
        if not (_is_index(i, dim) and _is_index(j, dim)):
            raise ParseError(f"bracket indices out of range: {ent!r}")
        for term in _as_list(terms, f"bracket [{i},{j}] terms"):
            try:
                k, coeff = term
            except (TypeError, ValueError):
                raise ParseError(f"malformed bracket term: {term!r}") from None
            if not _is_index(k, dim):
                raise ParseError(f"bracket target index out of range: {term!r}")
            v = _parse_rat(coeff, f"bracket [{i},{j}]")
            if i == j and v:
                raise ParseError(f"bracket [{i},{i}] must be zero: {ent!r}")
            summands.append((i, j, k, v))
    alg = LieAlgebraSpec.from_brackets(basis, summands)

    rmat = None
    if "r" in data:
        pairs = []
        for ent in _as_list(data["r"], "r"):
            try:
                i, j, coeff = ent
            except (TypeError, ValueError):
                raise ParseError(f"malformed r entry: {ent!r}") from None
            if not (_is_index(i, dim) and _is_index(j, dim)):
                raise ParseError(f"r indices out of range: {ent!r}")
            pairs.append(((i, j), _parse_rat(coeff, f"r[{i},{j}]")))
        entries = _nonzero(pairs)
        kind = data.get("kind")
        if kind is None:
            kind = ("antisymmetric-coboundary" if _asymmetry(entries) is None
                    else "quasitriangular-candidate")
        if kind not in ("antisymmetric-coboundary", "quasitriangular-candidate"):
            raise ParseError(f"unknown kind: {kind!r}")
        rmat = RMatrix(alg, entries, kind).validate()

    return alg, rmat


class RMatrix(_Record):
    """An element of g(x)g: a candidate r (antisymmetric) or r' (no symmetry),
    entries = (((i, j), r_ij), ...) over the nonzero r_ij in index order."""

    _fields = ("alg", "entries", "kind")

    def __init__(self, alg: LieAlgebraSpec, entries: tuple, kind="antisymmetric-coboundary"):
        self.__dict__.update(alg=alg, entries=entries, kind=kind)

    def validate(self):
        pair = _asymmetry(self.entries) if self.kind == "antisymmetric-coboundary" else None
        if pair is not None:
            raise AntisymmetryViolation("r[{0}][{1}] != -r[{1}][{0}]".format(*pair), pair=pair)
        return self

    def to_series(self, N: int = 2) -> "FormalSeriesTensor":
        d = self.alg.dim
        return FormalSeriesTensor.make(self.alg, 2, N, {
            (_unit(d, i), _unit(d, j)): v for (i, j), v in self.entries})


def _nonzero(pairs) -> tuple:
    """The (key, v) pairs summed per key: ((key, sum), ...) over the nonzero
    sums, in key order."""
    acc = {}
    for key, v in pairs:
        acc[key] = acc.get(key, ZERO) + v
    return tuple(sorted(item for item in acc.items() if item[1]))


def _asymmetry(items):
    """The least key, over the stored keys and their swaps (the first two
    indices exchanged), whose value is not minus its swap's, or None. A
    failing key's swap fails too and one of them is stored, so this is the
    first failure of a dense sweep in index order."""
    c = dict(items)
    swaps = ((key, (key[1], key[0], *key[2:]), v) for key, v in items)
    return min((min(key, swap) for key, swap, v in swaps if v != -c.get(swap, ZERO)),
               default=None)


def _unit(dim: int, i: int) -> Vec:
    return tuple(1 if t == i else 0 for t in range(dim))


def key_degree(key: Key) -> int:
    return sum(map(sum, key))


def slot_degrees(key: Key) -> tuple:
    return tuple(sum(v) for v in key)


def _normal(nums: dict, D: int) -> tuple:
    """(D, [(key, n), ...]) for the integer numerators nums over D > 0,
    reduced by one gcd, zeros dropped, keys in their order."""
    g = gcd(D, *nums.values())
    return D // g, [(key, n // g) for key, n in nums.items() if n]


def _integer(items) -> tuple:
    """({key: n}, D) with n / D the nonzero rationals (or ints) of the
    (key, value) pairs, D the lcm of their denominators."""
    kept = [(key, v) for key, v in items if v]
    D = lcm(*(v.denominator for _, v in kept))
    return {key: v.numerator * (D // v.denominator) for key, v in kept}, D


def _cleared(col: dict) -> tuple:
    """{key: rational or int} as linsolve's (D, items) column, zeros dropped."""
    nums, D = _integer(col.items())
    return D, nums.items()


class _SparseVec(_Record):
    """The state shared by the four sparse types (FormalSeriesTensor,
    LinearForm, PBWElement, PBWTensorSquare): the last field, ``numerators``,
    is (D, [(key, n), ...]) with coefficient n / D at key, normalised so
    that gcd(D, n, ...) = 1 (the zero vector is (1, [])). The constructor
    takes (*frame, {key: n}, D=1) and normalises by one gcd; ``make`` is
    the one entry from rationals; ``coeffs``, {key: rational} in the same
    key order, is a view built on first read. The other fields,
    ``_frame()``, say which space a vector lives in, and
    ``_check_pair(other, op)`` raises when two spaces differ. The frame
    here, which forms, PBW elements and tensor squares keep, is the algebra
    alone; FormalSeriesTensor adds its slot count and truncation. +, -,
    negation and scale are one ``combine``."""

    _fields = ("alg", "numerators")

    def __init__(self, alg: LieAlgebraSpec, nums: dict, D: int = 1):
        self.__dict__.update(alg=alg, numerators=_normal(nums, D))

    @classmethod
    def zero(cls, *frame):
        return cls(*frame, {})

    @cached_property
    def coeffs(self) -> dict:
        D, items = self.numerators
        return {key: QQ(n, D) for key, n in items}

    def is_zero(self) -> bool:
        return not self.numerators[1]

    def __add__(self, other):
        self._check_pair(other)
        return combine([(1, self), (1, other)])

    def __sub__(self, other):
        self._check_pair(other)
        return combine([(1, self), (-1, other)])

    def __neg__(self):
        return combine([(-1, self)])

    def scale(self, scalar):
        """scalar times self; scalar an int or a rational."""
        return combine([(scalar, self)])

    def extend_linearly(self, image, zero):
        """The linear map sending each key to the vector image(key), applied
        to self; zero is the image of the zero vector."""
        D, items = self.numerators
        return combine([(n, image(key)) for key, n in items], D) if items else zero

    def _frame(self) -> tuple:
        return (self.alg,)

    def _check_pair(self, other, op="combine"):
        if self.alg != other.alg:
            raise AlgebraMismatch(f"cannot {op} elements over different algebras")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._frame() == other._frame() and _same(self.numerators, other.numerators)


def _same(a: tuple, b: tuple) -> bool:
    """Whether two normal-form numerators hold the same coefficients."""
    return a[0] == b[0] and dict(a[1]) == dict(b[1])


class FormalSeriesTensor(_SparseVec):
    """Sparse element of S(g)^{(x)k} truncated at total degree N, in the
    state of _SparseVec: numerators over the keys, k-tuples of exponent
    vectors. Keys are not checked against N, so callers pass only keys of
    degree <= N; ``make`` drops the others.
    """

    _fields = ("alg", "k", "N", "numerators")

    def __init__(self, alg: LieAlgebraSpec, k: int, N: int, nums: dict, D: int = 1):
        self.__dict__.update(alg=alg, k=k, N=N, numerators=_normal(nums, D))

    @classmethod
    def make(cls, alg, k, N, items) -> "FormalSeriesTensor":
        """The series sum_key items[key] x^key, items rationals or ints;
        keys of degree > N are dropped."""
        return cls(alg, k, N, *_integer((key, v) for key, v in items.items()
                                        if key_degree(key) <= N))

    @classmethod
    def generator(cls, alg, i, N) -> "FormalSeriesTensor":
        """The basis element x_i as a 1-slot series."""
        return cls(alg, 1, N, {(_unit(alg.dim, i),): 1})

    @cached_property
    def memo(self) -> dict:
        """Per-instance cache, like LieAlgebraSpec.memo."""
        return {}

    @cached_property
    def numerator_buckets(self):
        """{total degree: [(key, n), ...]} over ``numerators``, in its order."""
        buckets = {}
        for item in self.numerators[1]:
            buckets.setdefault(sum(map(sum, item[0])), []).append(item)
        return buckets

    # ---- predicates ------------------------------------------------

    def in_m_tensor(self) -> bool:
        """Every slot of every key has degree >= 1 (element of m^{(x)k})."""
        return all(all(map(any, key)) for key, _ in self.numerators[1])

    def in_m_squared(self) -> bool:
        """Every key has total degree >= 2 (element of m^2)."""
        return all(deg >= 2 for deg in self.numerator_buckets)

    def min_degree(self) -> int:
        """N+1 when zero, else the smallest total degree present."""
        return min(self.numerator_buckets, default=self.N + 1)

    # ---- linear structure -------------------------------------------

    def _frame(self) -> tuple:
        return self.alg, self.k, self.N

    def _with(self, nums: dict, D: int, N=None) -> "FormalSeriesTensor":
        return FormalSeriesTensor(self.alg, self.k, self.N if N is None else N, nums, D)

    def __eq__(self, other):
        """Equal coefficients over the same algebra and slot count; N is
        not compared."""
        if not isinstance(other, FormalSeriesTensor):
            return NotImplemented
        return (self.alg == other.alg and self.k == other.k
                and _same(self.numerators, other.numerators))

    def homogeneous_part(self, degree: int) -> "FormalSeriesTensor":
        return self._with(dict(self.numerator_buckets.get(degree, ())), self.numerators[0])

    def truncate(self, N: int) -> "FormalSeriesTensor":
        out = {}
        for deg, items in self.numerator_buckets.items():
            if deg <= N:
                out.update(items)
        return self._with(out, self.numerators[0], N)

    def _check_pair(self, other, op="combine"):
        if self.k != other.k:
            raise SlotMismatch(f"cannot {op} {self.k}-slot and {other.k}-slot tensors")
        if self.N != other.N:
            raise TruncationMismatch(f"cannot {op} truncations N={self.N} and N={other.N}")
        if self.alg != other.alg:
            raise SlotMismatch("operands live over different Lie algebras")

    def __repr__(self):
        n = len(self.numerators[1])
        return f"FormalSeriesTensor(k={self.k}, N={self.N}, {n} terms)"


def combine(terms, D0: int = 1):
    """(1 / D0) sum c * t over the (c, t) pairs, c an int or a rational and
    every t a sparse vector of the first t's type and frame (not checked),
    summed over integer numerators brought to one common denominator; keys
    in first-hit order."""
    D = lcm(*(c.denominator * t.numerators[0] for c, t in terms))
    out = {}
    for c, t in terms:
        Dt, items = t.numerators
        m = c.numerator * (D // (c.denominator * Dt))
        for key, n in items:
            out[key] = out.get(key, 0) + m * n
    t = terms[0][1]
    return type(t)(*t._frame(), out, D * D0)


def multiply(f: FormalSeriesTensor, g: FormalSeriesTensor) -> FormalSeriesTensor:
    """Commutative product, slot-wise, truncated at N."""
    f._check_pair(g, "multiply")
    N = f.N
    k = f.k
    out = {}  # integer numerators over Df * Dg
    for df, items_f in f.numerator_buckets.items():
        for dg, items_g in g.numerator_buckets.items():
            if df + dg > N:
                continue
            for key_f, nf in items_f:
                for key_g, ng in items_g:
                    nk = tuple(
                        tuple(a + b for a, b in zip(key_f[s], key_g[s]))
                        for s in range(k)
                    )
                    out[nk] = out.get(nk, 0) + nf * ng
    return FormalSeriesTensor(f.alg, k, N, out, f.numerators[0] * g.numerators[0])


def poisson_bracket(f: FormalSeriesTensor, g: FormalSeriesTensor) -> FormalSeriesTensor:
    """Slot-wise Lie-Poisson bracket on S(g)^{(x)k}, truncated at N.

    On generators {x_i, x_j} = [x_i, x_j]; extended by Leibniz in each
    slot; different slots bracket independently (product structure).
    """
    f._check_pair(g, "bracket")
    alg = f.alg
    if alg.is_abelian:
        return FormalSeriesTensor.zero(alg, f.k, f.N)
    N = f.N
    Df, buckets_f = f.numerators[0], f.numerator_buckets
    Dg, buckets_g = g.numerators[0], g.numerator_buckets
    lookup = alg.slot_brackets.__getitem__
    out = {}  # integer numerators over Df * Dg * Dc
    for df, items_f in buckets_f.items():
        for dg, items_g in buckets_g.items():
            if df + dg - 1 > N:
                continue
            for key_f, nf in items_f:
                for key_g, ng in items_g:
                    slots = list(map(lookup, zip(key_f, key_g)))
                    base = None  # built only for pairs that bracket in some slot
                    for s, (_, terms) in enumerate(slots):
                        if not terms:
                            continue
                        if base is None:
                            base = tuple(map(_first, slots))
                            c0 = nf * ng
                        head, tail = base[:s], base[s + 1:]
                        for vec, n in terms:
                            nk = head + (vec,) + tail
                            out[nk] = out.get(nk, 0) + c0 * n
    return FormalSeriesTensor(alg, f.k, N, out, Df * Dg * alg.integer_rows[0])


def g_action(i: int, f: FormalSeriesTensor) -> FormalSeriesTensor:
    """The basis element x_i acting by ad(x_i), extended as a derivation:
    on each slot, the one-slot bracket {x_i, x^vec}."""
    alg = f.alg
    if not 0 <= i < alg.dim:
        raise IndexOutOfRange(f"basis index {i} out of range for dim {alg.dim}")
    lookup = alg.slot_brackets.__getitem__
    e_i = _unit(alg.dim, i)
    D, items = f.numerators
    out = {}
    for key, nf in items:
        for s, vec in enumerate(key):
            head, tail = key[:s], key[s + 1:]
            for new, n in lookup((e_i, vec))[1]:
                nk = head + (new,) + tail
                out[nk] = out.get(nk, 0) + nf * n
    return FormalSeriesTensor(alg, f.k, f.N, out, D * alg.integer_rows[0])


def is_invariant(f: FormalSeriesTensor) -> bool:
    """Whether g kills f, read through alg.actors as invariant_kernel reads
    it: a diagonal actor scales x^key by the weight of its multidegree, so
    every key must have weight zero (a 0-slot key, the constant, has none),
    and every gens actor must kill f."""
    alg = f.alg
    return (all(alg.weight_zero(tuple(map(sum, zip(*key)))) for key, _ in f.numerators[1] if key)
            and all(g_action(i, f).is_zero() for i in alg.actors[1]))


def invariant_kernel(alg: LieAlgebraSpec, keys, multidegree, act) -> list:
    """The g-invariants spanned by keys, as {key: c} dicts in kernel_of
    order: the kernel, over the keys whose multidegree(key) has weight zero,
    of the column images act(i, key) (linsolve's (D, items) pairs) stacked
    over alg.actors' gens i (see LieAlgebraSpec.actors) and their lcm."""
    weight_zero = {}
    images = {}
    for key in keys:
        tot = multidegree(key)
        if tot not in weight_zero:
            weight_zero[tot] = alg.weight_zero(tot)
        if weight_zero[tot]:
            acts = [(i, act(i, key)) for i in alg.actors[1]]
            D = lcm(*(Di for _, (Di, _) in acts))
            images[key] = D, [((i, m), n * (D // Di)) for i, (Di, items) in acts for m, n in items]
    return linsolve.kernel_of(images)


@cache
def _splits(vec: Vec, parts: int) -> tuple:
    """All ways to write vec as an ordered sum of `parts` exponent vectors,
    with the multinomial weight prod_i a_i!/(prod_t parts_t,i!): each
    composition of the first coordinate, in _compositions order, joined
    with the splits of the rest."""
    if not vec:
        return ((((),) * parts, 1),)
    out = []
    for comp in _compositions(vec[0], parts):
        w = factorial(vec[0]) // prod(map(factorial, comp))
        for vecs, rest in _splits(vec[1:], parts):
            out.append((tuple((c,) + v for c, v in zip(comp, vecs)), w * rest))
    return tuple(out)


def _compositions(total: int, parts: int):
    """The ways to write total as `parts` nonnegative integers, in lex order."""
    if parts < 2:
        if total == 0 or (parts == 1 and total > 0):
            yield (total,) * parts
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def coproduct_insert(f: FormalSeriesTensor, blocks, n: int) -> FormalSeriesTensor:
    """f^{I_1,...,I_m}: distribute each slot of f over its block of target
    slots with the cocommutative coproduct (x primitive), unit-filling
    uncovered slots. Blocks use the target slots 0..n-1."""
    blocks = [tuple(b) for b in blocks]
    if len(blocks) != f.k:
        raise SlotMismatch(
            f"{f.k}-slot tensor needs {f.k} blocks, got {len(blocks)}"
        )
    seen = set()
    for b in blocks:
        if not b:
            raise BlockOverlap("empty block")
        for t in b:
            if t in seen:
                raise BlockOverlap(f"target slot {t} appears in two blocks")
            seen.add(t)
    for t in seen:
        if not 0 <= t < n:
            raise IndexOutOfRange(f"target slot {t} outside 0..{n - 1}")

    unit_fill = [tuple([0] * f.alg.dim)] * n
    D, items = f.numerators
    out = {}
    for key, weight0 in items:  # each key's insertion in first-hit key order
        base = unit_fill.copy()
        split, per_slot = [], []
        for vec, block in zip(key, blocks):
            if len(block) == 1:  # a singleton block takes the slot as it is, with weight 1
                base[block[0]] = vec
            else:
                split.append(block)
                per_slot.append(_splits(vec, len(block)))
        for combo in itertools.product(*per_slot):
            weight = weight0
            new_key = base.copy()
            for block, (vecs, w) in zip(split, combo):
                weight *= w
                for t, v in zip(block, vecs):
                    new_key[t] = v
            nk = tuple(new_key)
            out[nk] = out.get(nk, 0) + weight
    return FormalSeriesTensor(f.alg, n, f.N, out, D)


@cache
def _permutation_signs(k: int) -> tuple:
    out = []
    for perm in itertools.permutations(range(k)):
        inv = 0
        for a in range(k):
            for b in range(a + 1, k):
                if perm[a] > perm[b]:
                    inv += 1
        out.append((perm, -1 if inv % 2 else 1))
    return tuple(out)


def alt_project(f: FormalSeriesTensor) -> FormalSeriesTensor:
    """Extract the multidegree-(1,...,1) component and apply the idempotent
    antisymmetrization (1/k!) sum_sigma sign(sigma) sigma onto wedge^k(g)."""
    k = f.k
    D, items = f.numerators
    out = {}  # integer numerators over D * k!
    for key, n in items:
        if slot_degrees(key) != (1,) * k:
            continue
        for perm, sign in _permutation_signs(k):
            nk = tuple(key[p] for p in perm)
            out[nk] = out.get(nk, 0) + sign * n
    return FormalSeriesTensor(f.alg, k, k, out, D * factorial(k))


def cyb(r: RMatrix, require_antisymmetric: bool = True) -> FormalSeriesTensor:
    """[r^{12},r^{13}] + [r^{12},r^{23}] + [r^{13},r^{23}] in g^{(x)3}.

    For tensors of pure degree (1,1) the slot-wise Poisson bracket of the
    insertions coincides with the algebraic bracket on g^{(x)3}, so this
    reuses poisson_bracket at N=3 with no truncation loss. With
    require_antisymmetric=False any element of g(x)g is accepted (the
    quasitriangular r').
    """
    if require_antisymmetric:
        if r.kind != "antisymmetric-coboundary":
            raise NotAntisymmetric("cyb needs an antisymmetric r")
        pair = _asymmetry(r.entries)
        if pair is not None:
            raise NotAntisymmetric("r[{0}][{1}] != -r[{1}][{0}]".format(*pair))
    rs = r.to_series(3)
    r12 = coproduct_insert(rs, ((0,), (1,)), 3)
    r13 = coproduct_insert(rs, ((0,), (2,)), 3)
    r23 = coproduct_insert(rs, ((1,), (2,)), 3)
    return (
        poisson_bracket(r12, r13)
        + poisson_bracket(r12, r23)
        + poisson_bracket(r13, r23)
    )
