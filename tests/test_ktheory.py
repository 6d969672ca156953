"""Numerical invariants: Euler pairing, reflections, absolute order."""

import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wpline import grading
from wpline.grading import make_line
from wpline import ktheory as kt
from wpline import linalg
from wpline import sheaves as sh
from wpline import tube
from wpline.nilpotent import Arc
from wpline.widposet import build_poset
from test_linalg import mat_mul, rank
from test_sheaves import kind_grid


LINE2 = make_line((2,))
LINE11 = make_line((1, 1))
LINE23 = make_line((2, 3))


def identity_weyl(line):
    m = line.k0_rank
    return kt.WeylElement(line, tuple(tuple(int(u == v) for v in range(m)) for u in range(m)))


def delta_class(line):
    """The null class [O(c)] - [O], as the class table stores it."""
    return line._k0.delta


def apply(w, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in w.matrix)


def neg_transpose(m):
    return tuple(tuple(-x for x in col) for col in zip(*m))


def reference_reflection(line, s):
    """x -> x - (<x, r> + <r, x>) r for the class r of s, from class_of
    and the Euler matrix only."""
    r = kt.class_of(s)
    e = kt.euler_matrix(line)
    m = len(r)
    pair = [sum(e[j][k] * r[k] + r[k] * e[k][j] for k in range(m)) for j in range(m)]
    return kt.WeylElement(line, tuple(tuple(int(u == j) - pair[j] * r[u] for j in range(m))
                                      for u in range(m)))


def compose(a, b):
    """The product a b by linalg's matrix product, checked as an element."""
    return kt.WeylElement(a.line, tuple(map(tuple, mat_mul(a.matrix, b.matrix))))


def test_rank_of_lattice():
    assert LINE11.k0_rank == 2
    assert LINE2.k0_rank == 3
    assert LINE23.k0_rank == 5
    # the closed form counts the basis the Euler matrix is built on
    for line in (LINE11, LINE2, LINE23):
        assert len(kt.basis_sheaves(line)) == line.k0_rank


def test_euler_matrices_frozen():
    assert kt.euler_matrix(LINE11) == ((1, 2), (0, 1))
    assert kt.euler_matrix(LINE2) == ((1, 2, 0), (0, 1, 0), (-1, -1, 1))


def test_euler_matrix_from_dimensions():
    """Each matrix entry must equal hom minus ext of the basis pair."""
    for line in (LINE11, LINE2, LINE23):
        basis = kt.basis_sheaves(line)
        m = kt.euler_matrix(line)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert m[i][j] == sh.hom_dim_sheaf(a, b) - sh.ext_dim_sheaf(a, b)


@pytest.mark.parametrize("i, j", [(0, 0), (1, 0), (0, 2), (1, 4)])
def test_wrong_delta_row_of_the_euler_matrix_raises(monkeypatch, i, j):
    """<delta, -> is minus the rank, so the rows of O and O(c) differ by
    (-1, -1, 0, ...); the Euler matrix is checked for it when it is
    built, and one wrong entry in either row raises."""
    line = make_line((2, 3))
    assert kt._LineTable(line).euler == kt.euler_matrix(LINE23)
    basis = kt.basis_sheaves(line)
    real = sh.hom_dim_sheaf
    monkeypatch.setattr(kt, "hom_dim_sheaf",
                        lambda a, b: real(a, b) + (a == basis[i] and b == basis[j]))
    with pytest.raises(ArithmeticError, match="row of the null class"):
        kt._LineTable(line).euler


def test_class_of_frozen():
    assert kt.class_of(sh.line_bundle(LINE2, (0, 0))) == (1, 0, 0)
    assert kt.class_of(sh.line_bundle(LINE2, (0, 0), 1)) == (0, 1, 0)
    assert kt.class_of(sh.simple_at(LINE2, 0, 1)) == (0, 0, 1)
    assert kt.class_of(sh.simple_at(LINE2, 0, 0)) == (-1, 1, -1)


def test_class_additive_on_tube_slices():
    # simples at one point sum to the class of one full turn
    for line in (LINE2, LINE23):
        delta = delta_class(line)
        for i in line.weighted_indices():
            total = None
            for j in range(line.weights[i]):
                v = kt.class_of(sh.simple_at(line, i, j))
                total = v if total is None else tuple(a + b for a, b in zip(total, v))
            assert total == delta
        assert kt.class_of(sh.OrdinaryTorsion(line, "q", 1)) == delta


def test_delta_is_canonical_difference():
    for line in (LINE11, LINE2, LINE23):
        O = kt.class_of(sh.line_bundle(line, (0,) * line.n))
        Oc = kt.class_of(sh.line_bundle(line, (0,) * line.n, 1))
        assert tuple(a - b for a, b in zip(Oc, O)) == delta_class(line)


def test_euler_form_matches_dimensions():
    objs = [sh.line_bundle(LINE2, (k, 0)) for k in range(-2, 3)]
    objs += [sh.simple_at(LINE2, 0, j) for j in (0, 1)]
    objs.append(sh.stack_at(LINE2, 0, 0, 2))
    for a, b in itertools.product(objs, repeat=2):
        expected = sh.hom_dim_sheaf(a, b) - sh.ext_dim_sheaf(a, b)
        assert kt.euler_form(LINE2, kt.class_of(a), kt.class_of(b)) == expected


def test_reflection_involution_and_negation():
    for line in (LINE2, LINE23):
        seeds = [sh.line_bundle(line, (0,) * line.n),
                 sh.line_bundle(line, (1,) + (0,) * (line.n - 1)),
                 sh.simple_at(line, line.weighted_indices()[0], 0)]
        for s in seeds:
            w = kt.cox_of(line, [s])
            assert w == reference_reflection(line, s)
            v = kt.class_of(s)
            assert apply(w, v) == tuple(-x for x in v)
            assert compose(w, w) == identity_weyl(line)


def test_reflection_preserves_symmetrized_form():
    line = LINE2
    w = kt.cox_of(line, [sh.simple_at(line, 0, 0)])
    e = kt.euler_matrix(line)
    basis = identity_weyl(line).matrix
    for x in basis:
        for y in basis:
            sym = kt.euler_form(line, tuple(x), tuple(y)) + kt.euler_form(line, tuple(y), tuple(x))
            wx, wy = apply(w, tuple(x)), apply(w, tuple(y))
            sym_w = kt.euler_form(line, wx, wy) + kt.euler_form(line, wy, wx)
            assert sym == sym_w


def test_coxeter_matrices_frozen():
    assert kt.coxeter_element(LINE11).matrix == ((3, 2), (-2, -1))
    assert kt.coxeter_element(LINE2).matrix == ((3, 2, -1), (-2, -1, 1), (1, 1, -1))


def test_coxeter_identity_all_types():
    for line in (LINE11, LINE2, LINE23):
        e = kt.euler_matrix(line)
        c = kt.coxeter_element(line).matrix
        prod = tuple(tuple(r) for r in mat_mul([list(r) for r in e], [list(r) for r in c]))
        assert prod == neg_transpose(e)


def test_coxeter_fixes_no_exceptional_class_sign():
    # the product of the canonical interval reflections reproduces the
    # stored element
    for line in (LINE11, LINE2, LINE23):
        seq = kt.canonical_interval_sequence(line)
        assert kt.cox_of(line, seq).matrix == kt.coxeter_element(line).matrix


def test_abs_length_values():
    for line in (LINE11, LINE2, LINE23):
        assert kt.abs_length(identity_weyl(line)) == 0
        r = kt.cox_of(line, [sh.line_bundle(line, (0,) * line.n)])
        assert kt.abs_length(r) == 1
        assert kt.abs_length(kt.coxeter_element(line)) == line.k0_rank


def test_cox_of_is_sequence_independent():
    O = sh.line_bundle(LINE2, (0, 0))
    Ox = sh.line_bundle(LINE2, (1, 0))
    S1 = sh.simple_at(LINE2, 0, 1)
    assert kt.cox_of(LINE2, (O, Ox)).matrix == kt.cox_of(LINE2, (S1, O)).matrix


def test_nc_leq_basic():
    line = LINE2
    c = kt.coxeter_element(line)
    e = identity_weyl(line)
    r = kt.cox_of(line, [sh.line_bundle(line, (0, 0))])
    assert kt.nc_leq(e, c)
    assert kt.nc_leq(r, c)
    assert kt.nc_leq(e, r)
    assert not kt.nc_leq(c, r)
    assert not kt.nc_leq(c, e)
    assert kt.nc_leq(c, c)


def test_nc_leq_tracks_subcategory_inclusion_spot():
    O = sh.line_bundle(LINE2, (0, 0))
    Ox = sh.line_bundle(LINE2, (1, 0))
    small = kt.cox_of(LINE2, (O,))
    big = kt.cox_of(LINE2, (O, Ox))
    assert kt.nc_leq(small, big)
    assert not kt.nc_leq(big, small)


# ---------------------------------------------------------------------------
# the integer fast paths against their references

QUERY_LINES = [make_line(w) for w in ((2,), (2, 3), (3, 3), (4,), (2, 2), (1, 1))]
ORDINARY = {(2, 2): ("q",), (1, 1): ("a", "b")}


def reference_class_of(s):
    """One simple class per composition factor, summed."""
    line = s.line
    widx = [i for i, p in enumerate(line.weights) if p >= 2]
    m = 2 + sum(line.weights[i] - 1 for i in widx)
    delta = [-1, 1] + [0] * (m - 2)

    def basis_index(point, j):
        idx = 2
        for i in widx:
            if i == point:
                return idx + j - 1
            idx += line.weights[i] - 1

    def simple_class(point, j):
        p = line.weights[point]
        j = j % p
        vec = [0] * m
        if j != 0:
            vec[basis_index(point, j)] = 1
            return vec
        vec = list(delta)
        for jj in range(1, p):
            vec[basis_index(point, jj)] -= 1
        return vec

    if isinstance(s, sh.LineBundle):
        vec = [0] * m
        vec[0] = 1
        for u in range(m):
            vec[u] += s.degree.c_part * delta[u]
        for i in widx:
            for j in range(1, s.degree.coeffs[i] + 1):
                vec = [a + b for a, b in zip(vec, simple_class(i, j))]
        return tuple(vec)
    if isinstance(s, sh.TorsionArc):
        vec = [0] * m
        for v in s.arc.factors():
            vec = [a + b for a, b in zip(vec, simple_class(s.point, v))]
        return tuple(vec)
    return tuple(s.length * x for x in delta)


def bundles(line, turns=6):
    """Every line bundle within +-turns canonical steps of O."""
    return [sh.line_bundle(line, coeffs, c)
            for coeffs in itertools.product(*(range(p) for p in line.weights))
            for c in range(-turns, turns + 1)]


def exceptional_pool(line):
    return bundles(line) + [
        sh.TorsionArc(line, i, Arc(line.weights[i], socle, length))
        for i in line.weighted_indices()
        for socle in range(line.weights[i]) for length in range(1, line.weights[i])]


POOLS = [exceptional_pool(line) for line in QUERY_LINES]


def test_class_of_table_matches_per_factor_sum():
    for line in QUERY_LINES:
        objs = bundles(line)
        objs += [sh.TorsionArc(line, i, Arc(line.weights[i], socle, length))
                 for i in line.weighted_indices()
                 for socle in range(line.weights[i])
                 for length in range(1, 2 * line.weights[i] + 2)]
        objs += [sh.OrdinaryTorsion(line, q, length)
                 for q in ORDINARY.get(line.weights, ()) for length in range(1, 4)]
        for s in objs:
            assert kt.class_of(s) == reference_class_of(s), s


def reference_abs_length(w):
    """The moved-space rank and the span test, both as Fraction ranks."""
    m = len(w.matrix)
    cols = [[w.matrix[u][v] - int(u == v) for u in range(m)] for v in range(m)]
    r = rank(cols)
    return r + int(rank(cols + [list(delta_class(w.line))]) == r)


def invert(a):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = linalg.rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def inverse(w):
    """The Fraction inverse, which must be integral, checked as an
    element."""
    inv = invert(w.matrix)
    assert all(x.denominator == 1 for row in inv for x in row)
    return kt.WeylElement(w.line, tuple(tuple(int(x) for x in row) for row in inv))


@st.composite
def reflection_products(draw):
    li = draw(st.integers(0, len(QUERY_LINES) - 1))
    picks = draw(st.lists(st.integers(0, len(POOLS[li]) - 1), max_size=8))
    return li, picks


@settings(max_examples=150)
@given(reflection_products())
@example((1, [POOLS[1].index(sh.line_bundle(QUERY_LINES[1], (0, 0))),
              POOLS[1].index(sh.line_bundle(QUERY_LINES[1], (0, 0), 1))]))
def test_weyl_integer_arithmetic_matches_fraction_reference(case):
    """Products of reflections: cox_of of one sheaf is its reference
    reflection, and the Bareiss rank and span test of abs_length agrees
    with linalg's Fraction ranks.  The Fraction inverse the nc_leq
    reference uses is the integral two-sided inverse."""
    li, picks = case
    line = QUERY_LINES[li]
    w = identity_weyl(line)
    for k in picks:
        s = POOLS[li][k]
        r = reference_reflection(line, s)
        assert kt.cox_of(line, [s]) == r
        w = compose(w, r)
    assert kt.abs_length(w) == reference_abs_length(w)
    assert compose(w, inverse(w)) == compose(inverse(w), w) == identity_weyl(line)


@st.composite
def dependent_rows(draw):
    """Integer matrices whose later rows are integer combinations of the
    first ones, shuffled."""
    ncols = draw(st.integers(1, 7))
    entry = st.integers(-4, 4)
    free = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    rows = list(free)
    for coef in draw(st.lists(st.lists(entry, min_size=len(free), max_size=len(free)),
                              max_size=4)):
        rows.append([sum(c * row[j] for c, row in zip(coef, free)) for j in range(ncols)])
    return draw(st.permutations(rows))


def _rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination (Bareiss,
    Math. Comp. 22, 1968): after k pivots every entry below them is a
    (k+1)-minor, so each division by the previous pivot is exact.
    abs_length runs the same elimination with delta appended."""
    m = [list(r) for r in rows]
    rank, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        p = top[c]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        rank += 1
    return rank


@settings(max_examples=300)
@given(dependent_rows())
def test_integer_rank_matches_fraction_rank(rows):
    assert _rank(rows) == rank(rows)


def test_weyl_element_rejects_form_breaking_matrix():
    line = LINE2
    m = line.k0_rank
    shear = tuple(tuple(int(u == v or (u, v) == (0, 1)) for v in range(m)) for u in range(m))
    with pytest.raises(ValueError, match="does not preserve"):
        kt.WeylElement(line, shear)
    double = tuple(tuple(2 * int(u == v) for v in range(m)) for u in range(m))
    with pytest.raises(ValueError, match="does not preserve"):
        kt.WeylElement(line, double)
    with pytest.raises(ValueError, match="wrong size"):
        kt.WeylElement(line, ((1, 0), (0, 1)))


def reference_preserves_form(line, matrix):
    """The full form check: w^T S w == S from two matrix products."""
    sym = [list(row) for row in line._k0.sym]
    w = [list(row) for row in matrix]
    return mat_mul([list(col) for col in zip(*w)], mat_mul(sym, w)) == sym


def is_real_root_mod_delta(line, key):
    """Whether the representative (key[0], 0, key[1], ...) pairs to 2
    with itself under the symmetrized form."""
    rep = (key[0], 0) + tuple(key[1:])
    sym = line._k0.sym
    return sum(rep[i] * sym[i][j] * rep[j] for i in range(len(rep)) for j in range(len(rep))) == 2


def perturb(matrix, kind, i, j, k):
    """A Weyl element's matrix changed by one edit; the form survives
    "none", "negate" and a multiple of delta added to a column."""
    m = [list(row) for row in matrix]
    n = len(m)
    i, j = i % n, j % n
    if kind == "entry":
        m[i][j] += k
    elif kind == "swap_rows":
        m[i], m[j] = m[j], m[i]
    elif kind == "swap_cols":
        for row in m:
            row[i], row[j] = row[j], row[i]
    elif kind == "negate_col":
        for row in m:
            row[j] = -row[j]
    elif kind == "negate":
        m = [[-x for x in row] for row in m]
    elif kind == "transpose":
        m = [list(col) for col in zip(*m)]
    elif kind == "delta_col":
        m[0][j] -= k
        m[1][j] += k
    return tuple(map(tuple, m))


@settings(max_examples=200)
@given(reflection_products(),
       st.sampled_from(("none", "entry", "swap_rows", "swap_cols", "negate_col", "negate",
                        "transpose", "delta_col")),
       st.integers(0, 5), st.integers(0, 5), st.sampled_from((-2, -1, 1, 2)))
def test_triangular_form_check_matches_full_product(case, kind, i, j, k):
    """The upper-triangle check accepts and rejects exactly the matrices
    that the full product w^T S w == S does, an accepted or a rejected
    matrix leaves the column memo as it was, and every memoized column
    is a real root modulo delta, so the memo stays bounded."""
    li, picks = case
    line = QUERY_LINES[li]
    w = identity_weyl(line)
    for pick in picks:
        w = compose(w, reference_reflection(line, POOLS[li][pick]))
    matrix = perturb(w.matrix, kind, i, j, k)
    memo = line._k0.sym_cols
    before = dict(memo)
    try:
        kt.WeylElement(line, matrix)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == reference_preserves_form(line, matrix)
    assert memo == before
    assert all(is_real_root_mod_delta(line, key) for key in memo)


def reference_nc_leq(u, v):
    """Lengths add along u, u^-1 v, v, with u^-1 v the Fraction inverse
    times v and every length from Fraction ranks."""
    return reference_abs_length(u) + reference_abs_length(compose(inverse(u), v)) \
        == reference_abs_length(v)


@settings(max_examples=100)
@given(reflection_products(), st.lists(st.integers(0, 10 ** 6), max_size=8))
def test_nc_leq_matches_inverse_then_compose(case, more):
    """nc_leq, read off v - u, agrees with the reference both ways round
    on products of reflections."""
    li, picks = case
    line = QUERY_LINES[li]
    pool = POOLS[li]
    u = v = identity_weyl(line)
    for pick in picks:
        u = compose(u, reference_reflection(line, pool[pick]))
    for pick in more:
        v = compose(v, reference_reflection(line, pool[pick % len(pool)]))
    assert kt.nc_leq(u, v) == reference_nc_leq(u, v)
    assert kt.nc_leq(v, u) == reference_nc_leq(v, u)


@pytest.mark.parametrize("weights, count", [((2,), 17), ((2, 2), 64)],
                         ids=["2", "2,2"])
def test_nc_leq_matches_reference_on_exceptional_nodes(weights, count, monkeypatch):
    """Every ordered pair of exceptional nodes at -2..3, their elements
    from cox_of of the ordered generators as criterion 8 builds them.
    Lengths are nonnegative, so the reference needs the length of u^-1 v
    only where the length of u is at most that of v, and so does
    nc_leq.  Each element's length is eliminated once, so the pairs take
    count + #{(u, v) : l(u) <= l(v)} eliminations, not 3 count^2."""
    line = make_line(weights)
    poset = build_poset(line, -2, 3)
    nodes = [n for n in poset.nodes if n.exc_gens is not None]
    elements = [kt.cox_of(line, tube.order_exc_sequence(poset.uni.members(n.exc_gens),
                                                        sh.hom_dim_sheaf, sh.ext_dim_sheaf,
                                                        sh.sheaf_sort_key))
                for n in nodes]
    assert len(elements) == count
    lengths = [reference_abs_length(w) for w in elements]
    inverses = [inverse(w) for w in elements]
    moved, calls = kt._moved, []

    def counting(*args):
        calls.append(args)
        return moved(*args)

    monkeypatch.setattr(kt, "_moved", counting)
    for u, lu, ui in zip(elements, lengths, inverses):
        for v, lv in zip(elements, lengths):
            want = lu <= lv and lu + reference_abs_length(compose(ui, v)) == lv
            assert kt.nc_leq(u, v) == want
    assert len(calls) == count + sum(lu <= lv for lu in lengths for lv in lengths)


def shifted_canonical(line, rng):
    step = line.element([rng.randrange(p) for p in line.weights], rng.randint(-6, 6))
    return [sh.shift(s, step) for s in kt.canonical_interval_sequence(line)]


def test_nc_leq_builds_no_weyl_element(monkeypatch):
    rng = random.Random(7)
    cases = []
    for line in QUERY_LINES:
        for _ in range(10):
            seq = shifted_canonical(line, rng)
            k = rng.randint(1, len(seq) - 1)
            cases.append((kt.cox_of(line, seq[:k]), kt.cox_of(line, seq)))
    expected = [(reference_nc_leq(u, v), reference_nc_leq(v, u)) for u, v in cases]

    built = []
    real = kt.WeylElement.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(kt.WeylElement, "__post_init__", counting)
    for (u, v), want in zip(cases, expected):
        for a, b, answer in ((u, v, want[0]), (v, u, want[1])):
            del built[:]
            assert kt.nc_leq(a, b) == answer
            assert built == []


def test_cox_of_reads_each_self_ext_once(monkeypatch):
    rng = random.Random(8)
    seqs = []
    for line in QUERY_LINES:
        kt.euler_matrix(line)
        for _ in range(10):
            seq = shifted_canonical(line, rng)
            seqs.append((line, seq[:rng.randint(1, len(seq))]))
    expected = [kt.cox_of(line, seq) for line, seq in seqs]

    selves = []
    real = sh.ext_dim_sheaf

    def counting(a, b):
        if a == b:
            selves.append(a)
        return real(a, b)

    monkeypatch.setattr(kt, "ext_dim_sheaf", counting)
    monkeypatch.setattr(sh, "ext_dim_sheaf", counting)
    for (line, seq), want in zip(seqs, expected):
        del selves[:]
        assert kt.cox_of(line, seq) == want
        assert selves == seq


@pytest.mark.parametrize("weights", [(2,), (2, 3), (3, 3), (2, 2)],
                         ids=lambda w: ",".join(map(str, w)))
def test_cox_of_keeps_one_checked_element_per_product(weights, monkeypatch):
    """Every complete shifted canonical sequence multiplies to the coxeter
    element, so cox_of returns one object for all of them, whose length
    is eliminated once.  Rejected sequences and products that break the
    form leave the line's elements unchanged, and the cache stays within
    its cap."""
    line = make_line(weights)
    rng = random.Random(sum(weights))
    canonical = kt.canonical_interval_sequence(line)
    c = kt.cox_of(line, canonical)
    shifted = shifted_canonical(line, rng)
    assert kt.cox_of(line, shifted) is c
    assert c == reference_cox_of(line, shifted)

    moved, calls = kt._moved, []

    def counting(*args):
        calls.append(args)
        return moved(*args)

    monkeypatch.setattr(kt, "_moved", counting)
    assert kt.abs_length(c) == kt.abs_length(kt.cox_of(line, shifted)) == line.k0_rank
    assert len(calls) == 1

    elements = line._k0.elements
    before = dict(elements)
    with pytest.raises(ValueError, match="not an exceptional sequence"):
        kt.cox_of(line, canonical[::-1])
    root = kt._root

    def doubled(ln, s):
        r, col = root(ln, s)
        return r, tuple(2 * a for a in col)

    monkeypatch.setattr(kt, "_root", doubled)
    with pytest.raises(ValueError, match="does not preserve the symmetrized form"):
        kt.cox_of(line, canonical[1:])
    assert elements == before
    monkeypatch.setattr(kt, "_root", root)

    monkeypatch.setattr(kt, "CACHE_LIMIT", 3)
    for k in range(len(shifted) + 1):
        w = kt.cox_of(line, shifted[:k])
        assert len(elements) <= 3
        assert elements[w.matrix] is w
        assert w == reference_cox_of(line, shifted[:k])


def test_forged_matrix_leaves_no_element_behind():
    """A matrix that breaks the form raises in the fill of the elements
    memo and stores nothing; a valid one is built once and kept."""
    t = make_line((2, 3))._k0
    shear = tuple(tuple(int(u == v or (u, v) == (0, 1)) for v in range(t.rank))
                  for u in range(t.rank))
    before = dict(t.elements)
    with pytest.raises(ValueError, match="does not preserve"):
        t.elements[shear]
    assert t.elements == before
    w = t.elements[t.identity]
    assert w == identity_weyl(t.line)
    assert t.elements[t.identity] is w


def test_a_class_without_unit_self_pairing_leaves_no_root_behind():
    """The roots fill raises on delta, zero and twice a root, and stores
    nothing; a root's column is kept once."""
    line = make_line((2, 3))
    t = line._k0
    r = kt.class_of(sh.line_bundle(line))
    for x in (t.delta, (0,) * t.rank, tuple(2 * a for a in r)):
        before = dict(t.roots)
        with pytest.raises(ValueError, match="class does not have unit self-pairing"):
            t.roots[x]
        assert t.roots == before
    assert t.roots[r] is t.roots[r] == written_sym_col(line, r)


def written_sym_col(line, r):
    """S r from the Euler matrix written out."""
    e = kt.euler_matrix(line)
    return tuple(sum((e[u][j] + e[j][u]) * r[j] for j in range(len(r))) for u in range(len(r)))


@pytest.mark.parametrize("name", ("classes", "bundle_parts", "arc_parts", "class_rows",
                                  "sym_cols", "roots", "elements"))
def test_each_memo_empties_at_the_cap_and_still_answers(name, monkeypatch):
    """On a fresh record with CACHE_LIMIT at 3, each memo is emptied when
    a miss finds it full, never holds more than three entries, and every
    answer read through it equals its reference.  The bundle_parts and
    arc_parts cases ask class_of about bundles alone and arcs alone, whose
    classes the one classes memo now holds."""
    line = make_line((2, 3))
    e = kt.euler_matrix(line)
    y = (1, -2, 3, 0, 2)
    seq = shifted_canonical(line, random.Random(5))
    arcs = [sh.TorsionArc(line, i, Arc(line.weights[i], socle, length))
            for i in line.weighted_indices() for socle in range(line.weights[i])
            for length in range(1, 2 * line.weights[i] + 2)]
    stalks = [sh.OrdinaryTorsion(line, "q", length) for length in (1, 2, 3)]
    classes = [reference_class_of(s) for s in exceptional_pool(line)]
    root_col = (lambda s: kt._root(line, s)[1], exceptional_pool(line),
                lambda s: written_sym_col(line, reference_class_of(s)))
    ask, args, reference = {
        "classes": (kt.class_of, bundles(line) + arcs + stalks, reference_class_of),
        "bundle_parts": (kt.class_of, bundles(line), reference_class_of),
        "arc_parts": (kt.class_of, arcs, reference_class_of),
        "class_rows": (lambda x: kt.euler_form(line, x, y), classes,
                       lambda x: sum(x[i] * e[i][j] * y[j] for i in range(5) for j in range(5))),
        "sym_cols": root_col,
        "roots": root_col,
        "elements": (lambda k: kt.cox_of(line, seq[:k]), range(len(seq) + 1),
                     lambda k: reference_cox_of(line, seq[:k])),
    }[name]
    want = [reference(a) for a in args]
    monkeypatch.setitem(line.__dict__, "_k0", kt._LineTable(line))
    monkeypatch.setattr(kt, "CACHE_LIMIT", 3)
    memo = getattr(line._k0, name if name not in ("bundle_parts", "arc_parts")
                   else "classes")
    sizes = []
    for a, w in zip(args, want):
        assert ask(a) == w, a
        sizes.append(len(memo))
    assert max(sizes) == 3
    assert any(b < a for a, b in zip(sizes, sizes[1:]))


def reference_part_plus_delta(s):
    """The replaced class_of: the class of a bundle's coefficient part, of
    an arc's partial turn or zero, plus k delta for the bundle's c part,
    the arc's full turns or the stalk's length."""
    t = s.line._k0
    if isinstance(s, sh.LineBundle):
        vec, k = t._coeff_class(s.degree.coeffs), s.degree.c_part
    elif isinstance(s, sh.TorsionArc):
        k, r = divmod(s.arc.length, s.arc.rank)
        vec = t._turn_class(s.point, s.arc.socle, r)
    else:
        vec, k = (0,) * t.rank, s.length
    return tuple(a + k * d for a, d in zip(vec, t.delta))


@pytest.mark.parametrize("line", QUERY_LINES, ids=lambda line: str(line.weights))
def test_class_of_fills_once_per_sheaf_key(line, monkeypatch):
    """On a fresh record, asking about every object of the sheaf grid
    twice, the second time in reverse order, runs the classes fill once
    per distinct key, and every answer equals the per-factor reference
    and the replaced part-plus-delta arithmetic."""
    objs = kind_grid(line, 6, 1)
    monkeypatch.setitem(line.__dict__, "_k0", kt._LineTable(line))
    memo = line._k0.classes
    fill, keys = memo.fill, []

    def counting(key):
        keys.append(key)
        return fill(key)

    memo.fill = counting
    for s in objs + objs[::-1]:
        assert kt.class_of(s) == reference_class_of(s) == reference_part_plus_delta(s), s
    assert len(keys) == len(set(keys)) == len(set(objs)) == len(memo)


def test_warm_classes_forms_and_roots_build_no_objects(monkeypatch):
    """Once the records are warm, class_of, euler_form and _root on the
    sheaf grid of the query lines neither shift nor normalize, and
    construct no grading element, arc or sheaf."""
    work = []
    for line in QUERY_LINES:
        objs = kind_grid(line, 6, 1)
        work += [(line, s, sh.is_exceptional_sheaf(s)) for s in objs]

    def answers():
        out = []
        for line, s, exceptional in work:
            x = kt.class_of(s)
            out.append((x, kt.euler_form(line, x, x), kt._root(line, s) if exceptional else None))
        return out

    expected = answers()

    def forbidden(*args):
        raise AssertionError("object built on the K0 query path")

    monkeypatch.setattr(sh, "shift", forbidden)
    monkeypatch.setattr(grading, "normalize", forbidden)
    for cls in (grading.GradeElement, Arc, sh.LineBundle, sh.TorsionArc, sh.OrdinaryTorsion):
        monkeypatch.setattr(cls, "__init__", forbidden)
    assert answers() == expected


def test_cox_of_rejects_a_sheaf_from_another_line():
    """Lines of weights 2,3 and 3,2 both have rank 5, so a class over one
    fits the other's form; cox_of raises rather than mix the two bases.
    Sheaves over an equal, separately built line are accepted."""
    a, b = make_line((2, 3)), make_line((3, 2))
    assert a.k0_rank == b.k0_rank
    canonical = kt.canonical_interval_sequence(b)
    for seq in [canonical, *([s] for s in canonical)]:
        with pytest.raises(ValueError, match="sheaf over a different line"):
            kt.cox_of(a, seq)
    twin = make_line((2, 3))
    assert kt.cox_of(twin, kt.canonical_interval_sequence(a)) == kt.coxeter_element(a)


def test_reflection_rejects_non_exceptional_sheaves():
    for s in (sh.stack_at(LINE2, 0, 0, 2), sh.OrdinaryTorsion(LINE2, "q", 1)):
        with pytest.raises(ValueError, match="not an exceptional sequence"):
            kt.cox_of(LINE2, [s])
        with pytest.raises(ValueError, match="not an exceptional sequence"):
            kt.cox_of(LINE2, [sh.line_bundle(LINE2, (0, 0)), s])


def reference_cox_of(line, seq):
    """Reflection by reflection: a checked WeylElement per product."""
    w = identity_weyl(line)
    for s in seq:
        w = compose(w, reference_reflection(line, s))
    return w


@pytest.mark.parametrize("line", QUERY_LINES, ids=lambda line: str(line.weights))
def test_cox_of_matches_compose_chain(line):
    """Every prefix of the canonical sequence shifted by each coefficient
    pattern and a few canonical steps."""
    canonical = kt.canonical_interval_sequence(line)
    for coeffs in itertools.product(*(range(p) for p in line.weights)):
        for c in (-3, 0, 2):
            step = line.element(coeffs, c)
            seq = [sh.shift(s, step) for s in canonical]
            for k in range(len(seq) + 1):
                assert kt.cox_of(line, seq[:k]) == reference_cox_of(line, seq[:k]), (step, k)
    with pytest.raises(ValueError):
        kt.cox_of(line, canonical[::-1])


@pytest.mark.parametrize("weights", [(2,), (2, 3), (3, 3), (4,), (2, 2), (1, 1), (3, 4)],
                         ids=lambda w: ",".join(map(str, w)))
def test_euler_rows_match_bilinear_form(weights):
    """The exact class rows and reflection columns against the bilinear
    form written out, on a fresh line so that the memo sizes can be
    read."""
    line = make_line(weights)
    e = kt.euler_matrix(line)
    m = len(e)
    delta = delta_class(line)

    def form(x, y):
        return sum(x[i] * e[i][j] * y[j] for i in range(m) for j in range(m))

    def modulo_delta(x):
        return tuple(a - x[1] * d for a, d in zip(x, delta))

    rng = random.Random(sum(weights))
    bases = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(12)]

    def draw():
        k = rng.randint(-1000, 1000)
        return [a + k * d for a, d in zip(rng.choice(bases), delta)]

    def written_row(x):
        return tuple(sum(x[i] * e[i][j] for i in range(m)) for j in range(m))

    table = line._k0
    seen = set()
    for n in range(300):
        x, y = draw(), draw()
        want = form(x, y)
        # lists first on odd draws, so that both input types miss and hit
        for arg in ((tuple(x), list(x)) if n % 2 else (list(x), tuple(x))):
            seen.add((type(arg), tuple(x) in table.class_rows))
            assert kt.euler_form(line, arg, tuple(y)) == want
            assert kt.euler_form(line, arg, y) == want
            assert table.class_rows[tuple(x)] == written_row(x)
    assert seen == {(tuple, False), (tuple, True), (list, False), (list, True)}

    exceptional = [s for s in kind_grid(line, 6, 1) if sh.is_exceptional_sheaf(s)]
    for s in exceptional:
        r, c = kt._root(line, s)
        assert r == kt.class_of(s)
        assert c == written_sym_col(line, r), s
    assert len(table.sym_cols) <= len({modulo_delta(kt.class_of(s)) for s in exceptional})

    hit = next(iter(table.class_rows))
    for x, y in (((0,) * (m - 1), (0,) * m), ((0,) * m, [0] * (m + 1)),
                 (hit, (0,) * (m + 1)), (list(hit), [0] * (m - 1))):
        with pytest.raises(ValueError, match="class vector of wrong rank"):
            kt.euler_form(line, x, y)

    # distinct classes past the cap
    y = draw()
    for n in range(kt.CACHE_LIMIT + 50):
        x = tuple(a + (2000 + n) * d for a, d in zip(bases[n % len(bases)], delta))
        got = kt.euler_form(line, x, y)
        assert len(table.class_rows) <= kt.CACHE_LIMIT
        if n % 500 == 0:
            assert got == form(x, y)
            assert table.class_rows[x] == written_row(x)


def written_form(line, x, y):
    e = kt.euler_matrix(line)
    return sum(x[i] * e[i][j] * y[j] for i in range(len(e)) for j in range(len(e)))


@pytest.mark.parametrize("line", QUERY_LINES, ids=lambda line: str(line.weights))
def test_euler_form_rejects_wrong_ranks_on_cold_and_warm_records(line, monkeypatch):
    """The class_rows fill checks the rank of x, once per class, and
    euler_form the rank of y on every call.  A wrong-rank x, as a tuple
    or a list, or a wrong-rank y raises the same ValueError on a fresh
    record and again once the record holds x's row; no wrong-rank key
    enters class_rows.  A list x of the rank answers as its tuple."""
    m = line.k0_rank
    x, y = tuple(range(1, m + 1)), tuple(range(m, 0, -1))
    want = written_form(line, x, y)
    bad = [(x[:-1], y), (list(x[:-1]), y), (x + (1,), y), (list(x) + [1], y), ((), y),
           (x, y[:-1]), (list(x), list(y) + [0]), (x, ())]
    for a, b in bad:
        monkeypatch.setitem(line.__dict__, "_k0", kt._LineTable(line))
        table = line._k0
        for warm in (False, True):
            if warm:
                assert kt.euler_form(line, x, y) == want
            with pytest.raises(ValueError, match="class vector of wrong rank"):
                kt.euler_form(line, a, b)
            assert all(type(k) is tuple and len(k) == m for k in table.class_rows), (a, b)
        assert kt.euler_form(line, list(x), y) == kt.euler_form(line, x, list(y)) == want
        assert list(table.class_rows) == [x]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(QUERY_LINES), st.data())
def test_drawn_ranks_answer_or_raise_and_store_no_wrong_key(line, data):
    """Classes of the rank or one or two off it, tuples or lists: the
    form answers as written out exactly when both are of the rank, and
    raises the wrong-rank ValueError otherwise; every key of class_rows
    stays a tuple of the rank."""
    m = line.k0_rank

    def vector():
        v = data.draw(st.lists(st.integers(-5, 5), min_size=max(m - 2, 0), max_size=m + 2))
        return v if data.draw(st.booleans()) else tuple(v)

    x, y = vector(), vector()
    if len(x) == len(y) == m:
        assert kt.euler_form(line, x, y) == written_form(line, x, y)
    else:
        with pytest.raises(ValueError, match="class vector of wrong rank"):
            kt.euler_form(line, x, y)
    assert all(type(k) is tuple and len(k) == m for k in line._k0.class_rows)


def check_warm_calls_open_no_nested_frame():
    """The check of the test below, run in a child interpreter: it sets
    and clears its own profile hook there."""
    work = []
    for line in QUERY_LINES:
        for s in kind_grid(line, 6, 1):
            x = kt.class_of(s)
            kt.euler_form(line, x, x)
            work.append((line, s, x))
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    for line, s, x in work:
        for f, args in ((kt.class_of, (s,)), (kt.euler_form, (line, x, x)),
                        (kt.euler_form, (line, list(x), list(x)))):
            del frames[:]
            sys.setprofile(profile)
            try:
                f(*args)
            finally:
                sys.setprofile(None)
            assert frames == [f.__name__], (f.__name__, s, frames)


def test_warm_class_of_and_euler_form_open_no_nested_frame():
    """On warm records class_of is one read of the line's record and of
    its classes memo, and euler_form one read of class_rows, a rank
    check and one dot product: under sys.setprofile neither opens a
    Python frame besides its own, on sheaves of every kind and on tuple
    and list classes.  The check runs in a fresh interpreter, so that
    clearing its hook leaves an outer profiler of this process, such as
    `python -m cProfile -m pytest`, in place."""
    paths = (pathlib.Path(kt.__file__).parents[1], pathlib.Path(__file__).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    script = "import test_ktheory\ntest_ktheory.check_warm_calls_open_no_nested_frame()\n"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
