"""Exact linear algebra over the rationals on plain list-of-list matrices."""

from __future__ import annotations

from fractions import Fraction


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def mat_vec(a, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def rref(rows):
    """Reduced row echelon form. Returns (rref rows, pivot column list)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows):
    if not rows or not rows[0]:
        return 0
    return len(rref(rows)[1])


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0} as a list of length-ncols vectors."""
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve(a_cols, target):
    """Solve a_cols @ x = target where a_cols is a list of column vectors.

    Returns the coefficient list, or None if inconsistent.
    """
    ncols = len(a_cols)
    nrows = len(target)
    aug = [[a_cols[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return x


def invert(a):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]
