"""Sparse exact linear algebra over Q, on integer numerators.

A map is given by its column images, a dict {basis key: image} whose
insertion order is the column order. Each image, each target and each
answer is a pair (D, items) as in a sparse vector's ``numerators``: n / D
at each (key, n), D > 0, n an int, keys any hashables. kernel_of and
preimage answer (D, {basis key: n}), which a sparse type's constructor
takes as it is; rank_of takes any iterable of images. Only numerators
are eliminated: a column's D rescales the answers (see _answer).

echelonize is Gauss-Jordan elimination on integer rows {column: int} in
sympy's sdm_irref order (rows by descending leading column, every pivot
row primitive and fully reduced) and returns those integer rows. The
reduced echelon form is unique once the column order is fixed, so no
answer depends on the order of the rows or of the image keys.
"""
from __future__ import annotations

from math import gcd, lcm


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
    """Reduced row echelon form: map pivot column -> primitive integer row,
    with a positive entry at its pivot (the row's smallest column) and no
    entry in any other pivot column."""
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
    return echelon


def _rows_of(images) -> dict:
    """Transpose the numerators of column images into {key: integer row}."""
    rows = {}
    for j, (_, items) in enumerate(images):
        for key, n in items:
            rows.setdefault(key, {})[j] = n
    return rows


def _answer(cols, dens, held, f, Df, free=None) -> tuple:
    """(L * Df, {basis key: n}) with value 1 at the basis key free, when one
    is given, then -row[f] * D_c / (P_c * Df) at the pivot column c of each
    (c, row) pair of held, in its order, P_c = row[c] > 0; L is the lcm of
    those P_c, and the answer need not be in lowest terms."""
    L = lcm(*(row[c] for c, row in held))
    nums = {} if free is None else {free: L * Df}
    nums.update((cols[c], -row[f] * dens[c] * (L // row[c])) for c, row in held)
    return L * Df, nums


def kernel_of(images: dict) -> list:
    """Basis of the kernel of the map sending each basis key b to images[b],
    one (D, {basis key: n}) per free column, in column order: 1 at the free
    column, then the values at the pivot columns, in echelon order."""
    cols, dens = list(images), [D for D, _ in images.values()]
    echelon = echelonize(_rows_of(images.values()).values())
    held = {j: [] for j in range(len(cols)) if j not in echelon}  # free column -> pivot rows
    for c, row in echelon.items():
        for j in row.keys() - {c}:  # each list fills in echelon order
            held[j].append((c, row))
    return [_answer(cols, dens, rows, f, dens[f], cols[f]) for f, rows in held.items()]


def rank_of(images) -> int:
    """Rank of the map whose columns are the given images."""
    return len(echelonize(_rows_of(images).values()))


def preimage(images: dict, target: tuple):
    """One exact x with sum_b x[b] * images[b] = target, as (D, {basis key:
    n}), or None when there is none. Free variables are set to zero, so the
    answer is the canonical pivot-order particular solution."""
    cols, dens = list(images), [D for D, _ in images.values()]
    aug = len(cols)  # the augmented column
    rows = _rows_of(images.values())
    Dt, items = target
    for key, n in items:
        rows.setdefault(key, {})[aug] = -n
    echelon = echelonize(rows.values())
    if aug in echelon:
        return None
    return _answer(cols, dens, [item for item in echelon.items() if aug in item[1]], aug, Dt)
