"""Sparse exact linear algebra over Q.

Rows are dicts {column index: coefficient}. Elimination pivots on the
smallest column index of each incoming row, which makes every result
deterministic given the caller's column ordering. No floating point
anywhere.

Callers describe a map by its column images instead: entry j is the image
of basis vector j, a dict {key: coefficient} over any hashable keys with
no zero coefficient stored (elimination divides by leading entries).
kernel_of, rank_of and preimage transpose images into rows; the reduced
form is unique given the column order, so the key order changes nothing.
"""
from __future__ import annotations

from ._rat import QQ, ZERO
from .errors import RankCertificate


def _reduce_row(row: dict, echelon: dict) -> dict:
    """Reduce a row against current pivots until its leading column is
    pivot-free (or the row dies)."""
    while row:
        c = min(row)
        piv = echelon.get(c)
        if piv is None:
            return row
        coef = row.pop(c)
        for cc, vv in piv.items():
            if cc == c:
                continue
            nv = row.get(cc, ZERO) - coef * vv
            if nv:
                row[cc] = nv
            else:
                row.pop(cc, None)
    return row


def echelonize(rows) -> dict:
    """Row echelon form: map pivot column -> row (normalized, leading 1).

    Stored rows may still involve later pivot columns; use rref() when
    back-substituted rows are required.
    """
    echelon = {}
    for row in rows:
        row = _reduce_row(dict(row), echelon)
        if row:
            c = min(row)
            inv = QQ(1) / row[c]
            echelon[c] = {cc: vv * inv for cc, vv in row.items()}
    return echelon


def rank(rows) -> int:
    return len(echelonize(rows))


def rref(rows) -> dict:
    """Fully reduced echelon form: each pivot row touches no other pivot column."""
    echelon = echelonize(rows)
    for c in sorted(echelon, reverse=True):
        row_c = echelon[c]
        for c2, row2 in echelon.items():
            if c2 == c:
                continue
            coef = row2.get(c)
            if coef is None:
                continue
            for cc, vv in row_c.items():
                if cc == c:
                    row2.pop(c, None)
                    continue
                nv = row2.get(cc, ZERO) - coef * vv
                if nv:
                    row2[cc] = nv
                else:
                    row2.pop(cc, None)
    return echelon


def kernel_basis(rows, ncols: int) -> list:
    """Basis of {x : Ax = 0} as sparse dicts, one per free column,
    deterministic order (increasing free column index)."""
    echelon = rref(rows)
    out = []
    for j in range(ncols):
        if j in echelon:
            continue
        vec = {j: QQ(1)}
        for c, row in echelon.items():
            coef = row.get(j)
            if coef:
                vec[c] = -coef
        out.append(vec)
    return out


def solve(rows, rhs, ncols: int):
    """One exact solution x of the system (row_i . x = rhs_i), or None.

    rows: list of sparse dicts; rhs: list of rationals. Free variables are
    set to zero, so the answer is the canonical pivot-order particular
    solution.
    """
    if len(rows) != len(rhs):
        raise RankCertificate(f"{len(rows)} rows against {len(rhs)} right-hand sides")
    aug = ncols  # augmented column
    augmented = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[aug] = -b
        augmented.append(r)
    echelon = rref(augmented)
    if aug in echelon:
        return None
    x = {}
    for c, row in echelon.items():
        coef = row.get(aug)
        if coef:
            x[c] = -coef
    return x


def _rows_of(images) -> dict:
    """Transpose column images into {key: row}."""
    rows = {}
    for j, col in enumerate(images):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    return rows


def kernel_of(images) -> list:
    """kernel_basis of the map whose column j is images[j]."""
    return kernel_basis(list(_rows_of(images).values()), len(images))


def rank_of(images) -> int:
    """rank of the map whose column j is images[j]."""
    return rank(list(_rows_of(images).values()))


def preimage(images, target: dict):
    """solve sum_j x[j] * images[j] = target for x; None when unsolvable."""
    rows = _rows_of(images)
    for key in target:
        rows.setdefault(key, {})
    return solve(list(rows.values()), [target.get(key, ZERO) for key in rows], len(images))
