"""Sparse exact linear algebra over Q.

A map is given by its column images, a dict {basis key: image} whose
insertion order is the column order. Each image, and each target, is a
pair (D, items) as in a sparse vector's ``numerators``: n / D at each
(key, n), D > 0, n a nonzero int, keys any hashables. kernel_of and
preimage answer in rationals over the basis keys; rank_of takes any
iterable of images. A column's D rescales the answers only, kernel vectors
by D_c / D_f and solutions by D_c / D_target at pivot column c.

echelonize is Gauss-Jordan elimination on integer rows {column: int} in
sympy's sdm_irref order (rows by descending leading column, every pivot
row primitive and fully reduced), forming rationals only for its answer.
The reduced echelon form is unique once the column order is fixed, so no
answer depends on the order of the rows or of the image keys.
"""
from __future__ import annotations

from math import gcd

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
    for row in sorted((dict(r) for r in rows if r), key=min, reverse=True):
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
    """Transpose the numerators of column images into {key: integer row}."""
    rows = {}
    for j, (_, items) in enumerate(images):
        for key, n in items:
            rows.setdefault(key, {})[j] = n
    return rows


def kernel_of(images: dict) -> list:
    """Basis of the kernel of the map sending each basis key b to images[b],
    as sparse dicts over the basis keys, one per free column, in column order."""
    cols, dens = list(images), [D for D, _ in images.values()]
    echelon = echelonize(_rows_of(images.values()).values())
    out = {j: {b: QQ(1)} for j, b in enumerate(cols) if j not in echelon}
    for c, row in echelon.items():
        for j, coef in row.items():
            if j != c:
                out[j][cols[c]] = QQ(-coef.numerator * dens[c], coef.denominator * dens[j])
    return list(out.values())


def rank_of(images) -> int:
    """Rank of the map whose columns are the given images."""
    return len(echelonize(_rows_of(images).values()))


def preimage(images: dict, target: tuple):
    """One exact x = {basis key: coefficient} with sum_b x[b] * images[b] =
    target, or None when there is none. Free variables are set to zero, so
    the answer is the canonical pivot-order particular solution."""
    cols, dens = list(images), [D for D, _ in images.values()]
    aug = len(cols)  # the augmented column
    rows = _rows_of(images.values())
    Dt, items = target
    for key, n in items:
        rows.setdefault(key, {})[aug] = -n
    echelon = echelonize(rows.values())
    if aug in echelon:
        return None
    return {cols[c]: QQ(-row[aug].numerator * dens[c], row[aug].denominator * Dt)
            for c, row in echelon.items() if row.get(aug)}
