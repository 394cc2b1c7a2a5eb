"""Sparse exact linear algebra over Q.

Rows are dicts {column index: coefficient} with no zero coefficient
stored. echelonize is Gauss-Jordan elimination in the order of sympy's
sdm_irref: it takes the rows by descending leading column and keeps every
pivot row fully reduced. The reduced echelon form is unique once the
column order is fixed, so no result depends on the row order. No floating
point anywhere.

Callers describe a map by its column images instead: entry j is the image
of basis vector j, a dict {key: coefficient} over any hashable keys with
no zero coefficient stored. kernel_of, rank_of and preimage transpose
images into rows, so the key order changes nothing either.
"""
from __future__ import annotations

from ._rat import QQ, ZERO
from .errors import RankCertificate


def _subtract(row: dict, coef, piv: dict, skip) -> None:
    """row -= coef * piv in place, over every column of piv except skip."""
    for cc, vv in piv.items():
        if cc != skip:
            nv = row.get(cc, ZERO) - coef * vv
            if nv:
                row[cc] = nv
            else:
                del row[cc]


def echelonize(rows) -> dict:
    """Reduced row echelon form: map pivot column -> row, with 1 at its
    pivot (the row's smallest column) and no entry in any other pivot column."""
    echelon = {}
    holders = {}  # column -> pivots whose rows held an entry there (may be stale)
    for row in sorted((dict(r) for r in rows if r), key=min, reverse=True):
        for c in [c for c in row if c in echelon]:  # reduced pivot rows: one pass
            _subtract(row, row.pop(c), echelon[c], c)
        if not row:
            continue
        p = min(row)
        inv = QQ(1) / row[p]
        row = {cc: vv * inv for cc, vv in row.items()}
        others = [cc for cc in row if cc != p]
        for q in holders.pop(p, ()):
            prow = echelon[q]
            coef = prow.pop(p, None)
            if coef is not None:
                _subtract(prow, coef, row, p)
                for cc in others:
                    holders.setdefault(cc, set()).add(q)
        for cc in others:
            holders.setdefault(cc, set()).add(p)
        echelon[p] = row
    return echelon


def rank(rows) -> int:
    return len(echelonize(rows))


def kernel_basis(rows, ncols: int) -> list:
    """Basis of {x : Ax = 0} as sparse dicts, one per free column,
    deterministic order (increasing free column index)."""
    echelon = echelonize(rows)
    out = {j: {j: QQ(1)} for j in range(ncols) if j not in echelon}
    for c, row in echelon.items():
        for j, coef in row.items():
            if j != c:
                out[j][c] = -coef
    return list(out.values())


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
    echelon = echelonize(augmented)
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
