"""Exact elimination: int/Fraction entries against the all-Fraction reference."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from wpline import linalg


def rank(rows):
    """Matrix rank as the number of rref pivots: the reference rank the
    tests share (the library itself ranks no matrix)."""
    if not rows or not rows[0]:
        return 0
    return len(linalg.rref(rows)[1])


def reference_rref(rows):
    """Reduced row echelon form with every entry rebuilt as a Fraction."""
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


def reference_nullspace(rows, ncols):
    red, pivots = reference_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def reference_solve(a_cols, target):
    ncols = len(a_cols)
    aug = [[col[i] for col in a_cols] + [t] for i, t in enumerate(target)]
    red, pivots = reference_rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return x


def exact(values) -> bool:
    return all(type(x) in (int, Fraction) for x in values)


def flat(matrix):
    return [x for row in matrix for x in row]


ENTRY = st.one_of(st.integers(-5, 5), st.just(0),
                  st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def matrices(draw):
    """Integer or rational matrices, some with rows that are combinations
    of earlier rows, plus a target vector and a coefficient vector."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    integral = draw(st.booleans())
    entry = st.integers(-5, 5) if integral else ENTRY
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for k in range(1, nrows):
        if draw(st.booleans()):
            a, b = draw(entry), draw(entry)
            rows[k] = [a * x + b * y for x, y in zip(rows[k - 1], rows[0])]
    target = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    coeffs = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    return rows, target, coeffs


@settings(max_examples=100)
@given(matrices())
@example(([[2, 4, 1], [3, -1, 0]], [1, 1], [1, 0, 2]))
@example(([[-3, 1], [Fraction(2, 3), 5]], [0, 7], [Fraction(1, 2), -1]))
@example(([[-1, 2, 3], [0, 1, -1]], [4, 5], [0, 0, 1]))
def test_elimination_matches_fraction_reference(case):
    """rref, rank, nullspace and solve equal the all-Fraction reference
    and produce only int or Fraction entries, never float."""
    rows, target, coeffs = case
    ncols = len(rows[0])
    snapshot = [list(r) for r in rows]
    red, pivots = linalg.rref(rows)
    assert rows == snapshot
    assert (red, pivots) == reference_rref(rows)
    assert exact(flat(red))
    assert rank(rows) == len(pivots)
    null = linalg.nullspace(rows, ncols)
    assert null == reference_nullspace(rows, ncols)
    assert exact(flat(null))
    cols = [list(col) for col in zip(*rows)]
    for want in (target, linalg.mat_vec(rows, coeffs)):
        x = linalg.solve(cols, want)
        assert x == reference_solve(cols, want)
        if x is not None:
            assert exact(x)
            assert linalg.mat_vec(rows, x) == want
    assert x is not None, "the second target is in the column span"


def test_unit_pivots_keep_integers():
    """A matrix that reduces with pivots 1 and -1 only stays in int."""
    red, pivots = linalg.rref([[1, 2, 3], [0, -1, 4], [2, 4, 6]])
    assert pivots == [0, 1]
    assert red == [[1, 0, 11], [0, 1, -4], [0, 0, 0]]
    assert all(type(x) is int for x in flat(red))
    assert all(type(x) is int for x in flat(linalg.nullspace([[1, 2, 3], [0, -1, 4]], 3)))
