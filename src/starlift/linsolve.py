"""Sparse exact linear algebra over Q.

Rows are dicts {column index: coefficient} with no zero coefficient
stored. echelonize is Gauss-Jordan elimination in the order of sympy's
sdm_irref: it takes the rows by descending leading column and keeps every
pivot row fully reduced. The reduced echelon form is unique once the
column order is fixed, so no result depends on the row order. It runs on
primitive integer rows and forms rationals only for its answer; no floats.

Callers describe a map by its column images: a dict {basis key: image},
whose insertion order is the column order, each image a dict {key:
coefficient} over any hashable keys with no zero coefficient stored.
kernel_of and preimage answer over the basis keys; rank_of takes any
iterable of images. They transpose the images into rows, so the order of
the image keys changes nothing either.
"""
from __future__ import annotations

from math import gcd, lcm

from ._rat import QQ


def _eliminate(row: dict, a: int, piv: dict, p) -> None:
    """In place: row -= (a // P) * piv if P = piv[p] divides a, else row = P*row - a*piv."""
    P = piv[p]
    if a % P:
        for cc in row:
            row[cc] *= P
    else:
        a //= P
    for cc, vv in piv.items():
        if cc != p:
            nv = row.get(cc, 0) - a * vv
            if nv:
                row[cc] = nv
            else:
                del row[cc]


def _primitive(row: dict, p) -> dict:
    """row divided by the gcd of its entries, with a positive entry at p."""
    g = 1 if row[p] == 1 else gcd(*row.values()) if row[p] > 0 else -gcd(*row.values())
    return row if g == 1 else {cc: v // g for cc, v in row.items()}


def echelonize(rows) -> dict:
    """Reduced row echelon form: map pivot column -> row, with 1 at its
    pivot (the row's smallest column) and no entry in any other pivot column."""
    echelon = {}  # pivot column -> primitive integer row
    holders = {}  # column -> pivots whose rows held an entry there (may be stale)
    cleared = []  # each row times the lcm of its denominators, as ints
    for r in filter(None, rows):
        m = lcm(*[v.denominator for v in r.values()])
        cleared.append({c: v.numerator * (m // v.denominator) for c, v in r.items()})
    for row in sorted(cleared, key=min, reverse=True):
        for c in [c for c in row if c in echelon]:  # reduced pivot rows: one pass
            _eliminate(row, row.pop(c), echelon[c], c)
        if not row:
            continue
        p = min(row)
        row = _primitive(row, p)
        others = [cc for cc in row if cc != p]
        for q in holders.pop(p, ()):
            prow = echelon[q]
            a = prow.pop(p, None)
            if a is not None:
                _eliminate(prow, a, row, p)
                echelon[q] = _primitive(prow, q)
                for cc in others:
                    holders.setdefault(cc, set()).add(q)
        for cc in others:
            holders.setdefault(cc, set()).add(p)
        echelon[p] = row
    return {c: {cc: QQ(n) for cc, n in row.items()} if row[c] == 1
            else {cc: QQ(n, row[c]) for cc, n in row.items()} for c, row in echelon.items()}


def _rows_of(images) -> dict:
    """Transpose column images into {key: row}."""
    rows = {}
    for j, col in enumerate(images):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    return rows


def kernel_of(images: dict) -> list:
    """Basis of the kernel of the map sending each basis key b to images[b],
    as sparse dicts over the basis keys, one per free column, in column order."""
    cols = list(images)
    echelon = echelonize(_rows_of(images.values()).values())
    out = {j: {b: QQ(1)} for j, b in enumerate(cols) if j not in echelon}
    for c, row in echelon.items():
        for j, coef in row.items():
            if j != c:
                out[j][cols[c]] = -coef
    return list(out.values())


def rank_of(images) -> int:
    """Rank of the map whose columns are the given images."""
    return len(echelonize(_rows_of(images).values()))


def preimage(images: dict, target: dict):
    """One exact x = {basis key: coefficient} with sum_b x[b] * images[b] =
    target, or None when there is none. Free variables are set to zero, so
    the answer is the canonical pivot-order particular solution."""
    cols = list(images)
    aug = len(cols)  # the augmented column
    rows = _rows_of(images.values())
    for key, b in target.items():
        if b:
            rows.setdefault(key, {})[aug] = -b
    echelon = echelonize(rows.values())
    if aug in echelon:
        return None
    return {cols[c]: -row[aug] for c, row in echelon.items() if row.get(aug)}
