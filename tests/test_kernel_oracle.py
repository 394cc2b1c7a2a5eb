"""The integer-numerator kernels (poisson_bracket, coproduct_insert,
g_action) against the Fraction loops they replaced: equal coefficients and
equal key insertion order, on algebras with integer and with non-integer
structure constants, and on equal but distinct algebra instances. The
split table _splits against the per-coordinate product it replaced."""
import itertools
from math import comb, factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starlift import (
    FormalSeriesTensor,
    LieAlgebraSpec,
    coproduct_insert,
    g_action,
    load_lie_algebra,
    poisson_bracket,
)
from starlift._rat import QQ
from starlift.core import _splits, key_degree

from conftest import data_path, rational_rows

# ---- reference oracles: the Fraction kernels, kept verbatim ----------------


def ref_degree_buckets(f):
    """{total degree: [(key, c), ...]} over f.coeffs, in its key order."""
    buckets = {}
    for key, c in f.coeffs.items():
        buckets.setdefault(key_degree(key), []).append((key, c))
    return buckets


def ref_poisson_bracket(f, g):
    f._check_pair(g, "bracket")
    alg = f.alg
    rows = rational_rows(alg)
    if not rows:
        return FormalSeriesTensor.zero(alg, f.k, f.N)
    N = f.N
    k = f.k
    out = {}
    for df, items_f in ref_degree_buckets(f).items():
        for dg, items_g in ref_degree_buckets(g).items():
            if df + dg - 1 > N:
                continue
            for key_f, cf in items_f:
                for key_g, cg in items_g:
                    c0 = cf * cg
                    base = tuple(
                        tuple(a + b for a, b in zip(key_f[s], key_g[s]))
                        for s in range(k)
                    )
                    for s in range(k):
                        af = key_f[s]
                        ag = key_g[s]
                        for i, ai in enumerate(af):
                            if not ai:
                                continue
                            row = rows.get(i)
                            if row is None:
                                continue
                            for j, aj in enumerate(ag):
                                if not aj:
                                    continue
                                ent = row.get(j)
                                if ent is None:
                                    continue
                                cc = c0 * (ai * aj)
                                for tgt, ctgt in ent:
                                    vec = list(base[s])
                                    vec[i] -= 1
                                    vec[j] -= 1
                                    vec[tgt] += 1
                                    nk = base[:s] + (tuple(vec),) + base[s + 1:]
                                    val = out.get(nk)
                                    term = cc * ctgt
                                    out[nk] = term if val is None else val + term
    return FormalSeriesTensor.make(alg, k, N, out)


def ref_g_action(i, f):
    alg = f.alg
    rows = rational_rows(alg).get(i)
    if rows is None:
        return FormalSeriesTensor.zero(alg, f.k, f.N)
    out = {}
    for key, cf in f.coeffs.items():
        for s, vec in enumerate(key):
            for j, aj in enumerate(vec):
                if not aj:
                    continue
                ent = rows.get(j)
                if ent is None:
                    continue
                cc = cf * aj
                for tgt, ctgt in ent:
                    new = list(vec)
                    new[j] -= 1
                    new[tgt] += 1
                    nk = key[:s] + (tuple(new),) + key[s + 1:]
                    val = out.get(nk)
                    term = cc * ctgt
                    out[nk] = term if val is None else val + term
    return FormalSeriesTensor.make(alg, f.k, f.N, out)


def _ref_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _ref_compositions(total - first, parts - 1):
            yield (first,) + rest


def _ref_splits(vec, parts):
    if parts == 1:
        yield (vec,), 1
        return
    per_coord = []
    for a in vec:
        comps = []
        for comp in _ref_compositions(a, parts):
            w = factorial(a)
            for part in comp:
                w //= factorial(part)
            comps.append((comp, w))
        per_coord.append(comps)
    for combo in itertools.product(*per_coord):
        weight = 1
        cols = []
        for comp, w in combo:
            weight *= w
            cols.append(comp)
        yield tuple(tuple(col[t] for col in cols) for t in range(parts)), weight


def ref_coproduct_insert(f, blocks, n):
    blocks = [tuple(b) for b in blocks]
    zero_vec = tuple([0] * f.alg.dim)
    out = {}
    for key, cf in f.coeffs.items():
        per_slot = [list(_ref_splits(key[s], len(block))) for s, block in enumerate(blocks)]
        for combo in itertools.product(*per_slot):
            weight = cf
            new_key = [zero_vec] * n
            for block, (vecs, w) in zip(blocks, combo):
                weight *= w
                for t, v in zip(block, vecs):
                    new_key[t] = v
            nk = tuple(new_key)
            val = out.get(nk)
            out[nk] = weight if val is None else val + weight
    return FormalSeriesTensor.make(f.alg, n, f.N, out)


# ---- algebras and tensors ---------------------------------------------------


def _rescaled(alg, q):
    """The same bracket times q: still a Lie algebra, with c_ijk = q * c_ijk."""
    brackets = tuple((key, v * q) for key, v in alg.brackets)
    return LieAlgebraSpec(alg.dim, alg.basis_names, brackets).validate()


def _twin(alg):
    """An equal but distinct instance, with no caches filled."""
    return LieAlgebraSpec(alg.dim, alg.basis_names, alg.brackets)


_SL2 = load_lie_algebra(data_path("sl2"))[0]
ALGEBRAS = {
    "sl2": _SL2,
    "sl3": load_lie_algebra(data_path("sl3"))[0],
    "nonabelian2": load_lie_algebra(data_path("nonabelian2"))[0],
    "sl2*2/3": _rescaled(_SL2, QQ(2, 3)),
}
# ints, and rationals whose denominators share some factors and not others
COEFFS = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.builds(QQ, st.integers(-7, 7).filter(bool), st.sampled_from((2, 3, 4, 6, 9, 10))),
)


@st.composite
def vecs(draw, dim, max_degree):
    vec = [0] * dim
    for _ in range(draw(st.integers(0, max_degree))):
        vec[draw(st.integers(0, dim - 1))] += 1
    return tuple(vec)


@st.composite
def tensors(draw, alg, k, N):
    keys = st.tuples(*[vecs(alg.dim, min(N, 3)) for _ in range(k)])
    items = draw(st.dictionaries(keys, COEFFS, min_size=1, max_size=5))
    return FormalSeriesTensor.make(alg, k, N, items)


@st.composite
def settings_(draw):
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    return alg, draw(st.integers(1, 3)), draw(st.integers(2, 5))


def _same(got, want):
    assert (got.alg, got.k, got.N) == (want.alg, want.k, want.N)
    assert got.coeffs == want.coeffs
    assert list(got.coeffs) == list(want.coeffs)


def _on(alg, f):
    return FormalSeriesTensor.make(alg, f.k, f.N, f.coeffs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_poisson_bracket_matches_fraction_oracle(data):
    alg, k, N = data.draw(settings_())
    f = data.draw(tensors(alg, k, N))
    g = data.draw(tensors(alg, k, N))
    want = ref_poisson_bracket(f, g)
    _same(poisson_bracket(f, g), want)
    twin = _twin(alg)
    _same(poisson_bracket(_on(twin, f), _on(twin, g)), want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_g_action_matches_fraction_oracle(data):
    alg, k, N = data.draw(settings_())
    f = data.draw(tensors(alg, k, N))
    i = data.draw(st.integers(0, alg.dim - 1))
    want = ref_g_action(i, f)
    _same(g_action(i, f), want)
    _same(g_action(i, _on(_twin(alg), f)), want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coproduct_insert_matches_fraction_oracle(data):
    alg, k, N = data.draw(settings_())
    f = data.draw(tensors(alg, k, N))
    n = k + data.draw(st.integers(0, 2))
    targets = data.draw(st.permutations(range(n)))
    covered = data.draw(st.integers(k, n))
    cuts = sorted(data.draw(st.permutations(range(1, covered)))[:k - 1])
    bounds = [0] + cuts + [covered]
    blocks = [tuple(targets[a:b]) for a, b in zip(bounds, bounds[1:])]
    want = ref_coproduct_insert(f, blocks, n)
    _same(coproduct_insert(f, blocks, n), want)
    _same(coproduct_insert(_on(_twin(alg), f), blocks, n), want)


@st.composite
def split_cases(draw):
    """(vec, parts): vec of length 0-4 with entries 0-4 and parts in 1-4,
    with at most 2,000 splits, since _splits keeps every table it builds."""
    vec = tuple(draw(st.lists(st.integers(0, 4), max_size=4)))
    parts = draw(st.integers(1, 4))
    assume(prod(comb(a + parts - 1, parts - 1) for a in vec) <= 2000)
    return vec, parts


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_splits_match_the_per_coordinate_oracle(case):
    """The same split vectors and weights in the same order: the order is
    coproduct_insert's key order."""
    vec, parts = case
    assert _splits(vec, parts) == tuple(_ref_splits(vec, parts))


def test_numerators_share_one_denominator():
    alg = ALGEBRAS["sl2*2/3"]
    f = FormalSeriesTensor.make(alg, 1, 3, {((1, 0, 0),): QQ(1, 6), ((0, 2, 0),): QQ(-3, 4)})
    assert f.numerators == (12, [(((1, 0, 0),), 2), (((0, 2, 0),), -9)])
    assert alg.integer_rows[0] == 3


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_slot_table_lives_on_the_instance(name, monkeypatch):
    """An equal spec seen earlier costs no structure-constant comparisons:
    the bracket's only equality test is _check_pair's."""
    alg = ALGEBRAS[name]
    keys = [key for key in itertools.product(
        [v for v in itertools.product(range(3), repeat=alg.dim) if sum(v) <= 2], repeat=2)
        if key_degree(key) <= 3][:40]
    items = {key: QQ(j + 1, 2) for j, key in enumerate(keys)}
    f = FormalSeriesTensor.make(alg, 2, 3, items)
    poisson_bracket(f, f)
    twin = _twin(alg)
    ft = _on(twin, f)
    calls = []
    eq = LieAlgebraSpec.__eq__

    def counting_eq(self, other):
        calls.append(1)
        return eq(self, other)

    monkeypatch.setattr(LieAlgebraSpec, "__eq__", counting_eq)
    _same(poisson_bracket(ft, ft), ref_poisson_bracket(f, f))
    monkeypatch.undo()
    # one from _check_pair, one or two from _same
    assert len(calls) <= 3
    assert twin.slot_brackets is not alg.slot_brackets
