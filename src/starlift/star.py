"""The BCH group structure on m^2 and star-conjugation.

f * g = f + g + (1/2){f,g} + ... evaluated with the slot-wise Poisson
bracket. Each letter lives in m^2, so an L-letter bracket word has total
degree >= L+1 and only words with <= N-1 letters survive truncation at N:
the series is finite and exact.

The terms are derived once per word length and process: the right-nested
words whose last two letters differ span the free Lie algebra, and one
exact solve against log(exp x exp y) in Q<x,y> keeps the pivot words.
"""
from __future__ import annotations

from functools import cache
from itertools import product
from math import factorial

from ._rat import QQ
from .core import FormalSeriesTensor, combine, poisson_bracket
from .errors import NotInMSquared, RankCertificate, SlotMismatch
from .linsolve import preimage


def _free_mul(a: dict, b: dict, max_deg: int) -> dict:
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) > max_deg:
                continue
            w = wa + wb
            cur = out.get(w)
            prod = ca * cb
            out[w] = prod if cur is None else cur + prod
    return {w: c for w, c in out.items() if c}


def assoc_log_exp_exp(max_deg: int) -> dict:
    """log(exp x exp y) in Q<x,y> truncated beyond max_deg, as a map
    word-over-{0,1} -> coefficient. Exact by finite series arithmetic."""
    # exp(x)exp(y) - 1: words x^a y^b, (a,b) != (0,0)
    u = {}
    for a in range(max_deg + 1):
        for b in range(max_deg + 1 - a):
            if a + b == 0:
                continue
            u[(0,) * a + (1,) * b] = QQ(1, factorial(a) * factorial(b))
    out = {}
    power = {(): QQ(1)}
    for m in range(1, max_deg + 1):
        power = _free_mul(power, u, max_deg)
        sign = QQ(-1 if m % 2 == 0 else 1, m)
        for w, c in power.items():
            cur = out.get(w)
            term = sign * c
            out[w] = term if cur is None else cur + term
    return {w: c for w, c in out.items() if c}


def _expand(word) -> dict:
    """The right-nested bracket word in Q<x,y>, as word -> coefficient."""
    out = {word[-1:]: 1}
    for s in reversed(word[:-1]):
        nxt = {}
        for w, c in out.items():
            nxt[(s,) + w] = nxt.get((s,) + w, 0) + c
            nxt[w + (s,)] = nxt.get(w + (s,), 0) - c
        out = {w: c for w, c in nxt.items() if c}
    return out


@cache
def bch_terms(max_len: int) -> tuple:
    """(coefficient, nested-commutator word) pairs for all BCH terms of
    2..max_len letters; word (a,b,c) over {0,1} means {a,{b,c}}, with
    0 = first argument and 1 = second.

    Length L solves for the length-L part of log(exp x exp y) over the
    words ending in two different letters, in itertools.product order.
    They span the free Lie algebra's length-L part, and the canonical
    solution keeps only pivot words, so the list is unique and its words
    of each length are linearly independent.
    """
    if max_len < 2:
        return ()
    words = {w: _expand(w) for w in product((0, 1), repeat=max_len) if w[-1] != w[-2]}
    target = {w: c for w, c in assoc_log_exp_exp(max_len).items() if len(w) == max_len}
    x = preimage(words, target)
    if x is None:
        raise RankCertificate(f"BCH terms of length {max_len} are not a Lie element")
    return bch_terms(max_len - 1) + tuple((x[w], w) for w in sorted(x))


def _check_star_pair(f, g):
    if f.k != g.k:
        raise SlotMismatch(f"star needs equal slot counts, got {f.k} and {g.k}")
    if not f.in_m_squared() or not g.in_m_squared():
        raise NotInMSquared("star arguments must have every term of degree >= 2")
    f._check_pair(g)


def _nested(word, f, g, cache):
    got = cache.get(word)
    if got is not None:
        return got
    if len(word) == 1:
        val = f if word[0] == 0 else g
    else:
        head = f if word[0] == 0 else g
        val = poisson_bracket(head, _nested(word[1:], f, g, cache))
    cache[word] = val
    return val


def star(f: FormalSeriesTensor, g: FormalSeriesTensor) -> FormalSeriesTensor:
    """The BCH product f * g on (m^2, { , }), truncated at N: f, g and
    every BCH word in one combine."""
    _check_star_pair(f, g)
    cache = {}
    return combine([(1, f), (1, g)] + [(coeff, _nested(word, f, g, cache))
                                       for coeff, word in bch_terms(max(f.N - 1, 1))])


def negate(f: FormalSeriesTensor) -> FormalSeriesTensor:
    """The group inverse in (m^2, star)."""
    return -f


def star_conjugate(rho: FormalSeriesTensor, x: FormalSeriesTensor) -> FormalSeriesTensor:
    """exp({rho, .}) applied to x: sum_n (1/n!) {rho,{rho,...{rho,x}...}}.

    Agrees with rho * x * (-rho) when x is in m^2, and is an algebra and
    Poisson automorphism of the truncated O_{(g*)^k} in general.
    """
    if rho.k != x.k:
        raise SlotMismatch(f"conjugation needs equal slot counts, got {rho.k} and {x.k}")
    if not rho.in_m_squared():
        raise NotInMSquared("conjugator must have every term of degree >= 2")
    terms = [(1, x)]
    acc = x
    n = 0
    while n <= x.N:
        n += 1
        acc = poisson_bracket(rho, acc)
        if acc.is_zero():
            break
        terms.append((QQ(1, factorial(n)), acc))
    return combine(terms)
