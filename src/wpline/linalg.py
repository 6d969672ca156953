"""Exact linear algebra over the rationals on plain list-of-list matrices:
reduced row echelon form and nullspaces, for nilpotent, its one user.

Entries are `int` or `Fraction`, never `float`: the two mix exactly, so
integral matrices stay in `int` until a division is needed.  `rref`
copies its rows as they are and scales a pivot row only when the pivot
is not 1: a pivot of -1 negates the row, and any other pivot p is
inverted as `Fraction(p.denominator, p.numerator)`, never as `1 / p`
(a float for an `int` p), with `fractions` imported only on that path.
"""

from __future__ import annotations


def rref(rows):
    """Reduced row echelon form. Returns (rref rows, pivot column list)."""
    m = [list(row) for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][c]
        if p == -1:
            m[r] = [-x for x in m[r]]
        elif p != 1:
            from fractions import Fraction
            inv = Fraction(p.denominator, p.numerator)
            m[r] = [x * inv for x in m[r]]
        row = m[r]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [x - f * y if y else x for x, y in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0} as a list of length-ncols vectors."""
    if not rows:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis

