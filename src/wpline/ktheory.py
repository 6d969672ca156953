"""Grothendieck-group layer over a line with at most two weighted points.

Classes live in the fixed basis ([O], [O(c)], simple torsion classes
with index 1..p-1 per weighted point); the Euler matrix tabulates
hom minus ext of the basis objects.  Exceptional sheaves give
reflections, exceptional sequences multiply out to group elements, and
the absolute-length order on those elements is the noncrossing order.

The preserved bilinear invariant is the symmetrized Euler form: single
reflections conjugate the raw form into its transpose, so only the
symmetrization is stable under all of them.  It is checked on every
constructed group element.  cox_of constructs one: it multiplies the
reflections of a sequence as rank-one updates of a plain integer
matrix, which preserve the form by construction, and checks the
product.  The full form identity (E C = -E^T) is still enforced for the
distinguished element produced by the canonical bundle sequence.

Each line's constants live in one record, `line._k0`, a cached property
of WeightData like its `p`: built on first read, by a body that imports
this module, and kept in the line's instance `__dict__`, so every later
read is one plain attribute read.  It holds the rank, the basis index,
the null class delta, the Euler matrix and its symmetrization, and the
identity matrix of the rank.  Every class is read off one step formula,
[O(l x_i)] - [O]: the simple S_{i,j} is the cokernel of x_i:
O((j-1) x_i) -> O(j x_i) (Geigle-Lenzing, LNM 1273, 1987), so a run of
simples telescopes to two steps.  Values that repeat across queries live in
the record's memos, all of one type, `_Memo`: a dict that fills a
missing key from one function and is emptied at CACHE_LIMIT entries,
which bounds a line's memory however many degrees a caller asks about.
Each is read by one subscript.  They hold the class of each sheaf key,
so class_of is one read; the exact Euler row x^T E of a class, whose
fill checks its rank, so euler_form is one read and one dot product;
the column S r of a root r, keyed by r modulo delta, as S delta = 0 and
<r + delta, r + delta> = <r, r>, once <r, r> = 1 is checked; and the
WeylElement that cox_of returned for a product matrix, so equal
products share one form check and one kept abs_length.  A fill that
raises stores nothing, so only checked roots and elements are kept.

Group elements are integer matrices throughout, with fraction-free
elimination (Bareiss, Math. Comp. 22, 1968) where a division is needed.
The form check compares the upper triangle of the symmetric w^T S w,
entry (i, j) being w_i . S w_j, with S w_j computed per column and read
from no memo, so a matrix leaves every memo as it was whether it passes
or not.  Every key of the roots memo is a real root modulo delta: S is
positive definite on K0 / Z delta, so real roots are finitely many
modulo delta.  One elimination of a difference
b - a serves abs_length (b = w, a = 1) and nc_leq, which reads the
length of u^-1 v off v - u, so it inverts nothing and builds no
element.  abs_length is a cached property of each element, and
lengths are nonnegative, so nc_leq(u, v) is False without an
elimination when u is longer than v: comparing n elements pairwise
takes n eliminations for the lengths plus one per ordered pair whose
first element is no longer than the second.  linalg's exact rational
routines are the tests' reference.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul, sub

from . import tube
from ._record import Record
from .grading import WeightData
from .sheaves import (IndecSheaf, LineBundle, OrdinaryTorsion, TorsionArc,
                      ext_dim_sheaf, hom_dim_sheaf, line_bundle, simple_at)

# entries at which a memo of a line's record is emptied
CACHE_LIMIT = 4096


class _Memo(dict):
    """A dict that fills a missing key with fill(key): the value is
    computed, the dict emptied once it holds CACHE_LIMIT entries, and the
    value stored and returned, so a fill that raises stores nothing."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self.fill(key)
        if len(self) >= CACHE_LIMIT:
            self.clear()
        self[key] = value
        return value


class _LineTable:
    """Constants of one line's Grothendieck group, computed once per line
    by the line's cached property `_k0`.

    The rank, the basis index and delta are filled on construction, and
    every class is read off `_step`.  The basis index maps each step
    (i, j), 1 <= j < p_i at a weighted point i, to its basis position
    from 2 on, and is the one list of the steps: basis_sheaves and
    canonical_interval_sequence read them off it.  The Euler matrix and
    its symmetrization are filled on first use from Hom and Ext of the
    basis, because they need line bundles, which lines with three
    weighted points do not model.

    The memos are `_Memo`s, each filled from its key on a miss:
    `classes`, a sheaf's key in class_of to its class; `class_rows`, a
    class x of the rank, which its fill checks, to x^T E; `roots`, a
    class r of unit self-pairing modulo delta, keyed by (r0 + r1, r2,
    ...), to S r; and `elements`, a product matrix to its checked
    WeylElement.
    """

    def __init__(self, line: WeightData):
        self.line = line
        pairs = [(i, j) for i in line.weighted_indices() for j in range(1, line.weights[i])]
        self.index = {ij: u for u, ij in enumerate(pairs, 2)}   # (point, j) -> basis position
        self.rank = line.k0_rank
        self.delta = (-1, 1) + (0,) * (self.rank - 2)   # [O(c)] - [O]
        self.identity = tuple(tuple(int(u == v) for v in range(self.rank))
                              for u in range(self.rank))
        self.classes = _Memo(self._class)
        self.class_rows = _Memo(self._class_row)
        self.roots = _Memo(self._root_col)
        self.elements = _Memo(lambda w: WeylElement(line, w))

    def _step(self, point: int, l: int) -> tuple[int, ...]:
        """[O(l x_i)] - [O] at a point i: the basis steps (i, 1), ...,
        (i, l mod p_i) plus (l // p_i) delta, as p_i x_i = c."""
        k, r = divmod(l, self.line.weights[point])
        vec = [-k, k] + [0] * (self.rank - 2)
        for j in range(1, r + 1):
            vec[self.index[point, j]] = 1
        return tuple(vec)

    def _class(self, key) -> tuple[int, ...]:
        """The class of a sheaf key, read off `_step`: k delta for a
        stalk's length k; [O] plus the step of each weighted coefficient
        plus k delta for a bundle's (coeffs, k); and the step to the top
        factor minus the step below the socle for an arc's (point, socle,
        length), whose factors are the simples socle, ..., socle + length
        - 1, each the difference of two consecutive steps."""
        if type(key) is int:
            return tuple(key * d for d in self.delta)
        if len(key) == 3:
            i, socle, length = key
            return tuple(map(sub, self._step(i, socle + length - 1), self._step(i, socle - 1)))
        coeffs, k = key
        return tuple(map(sum, zip((1 - k, k) + (0,) * (self.rank - 2),
                                  *(self._step(i, coeffs[i])
                                    for i in self.line.weighted_indices()))))

    def _class_row(self, x) -> tuple:
        """x^T E for a class x, which must be of the rank."""
        if len(x) != self.rank:
            raise ValueError("class vector of wrong rank")
        return tuple(sum(map(mul, x, col)) for col in zip(*self.euler))

    def _root_col(self, key) -> tuple:
        """S r for the class r = (key[0], 0, key[1], ...) modulo delta,
        which must have unit self-pairing: r^T S r = 2 <r, r> = 2."""
        r = (key[0], 0) + key[1:]
        sr = self.sym_of(r)
        if sum(map(mul, r, sr)) != 2:
            raise ValueError("class does not have unit self-pairing")
        return sr

    @cached_property
    def euler(self) -> tuple:
        basis = basis_sheaves(self.line)
        e = tuple(tuple(hom_dim_sheaf(a, b) - ext_dim_sheaf(a, b) for b in basis)
                  for a in basis)
        # a check of the basis Hom and Ext: delta is the class of an
        # ordinary simple S, and <S, F> = -rk F
        if tuple(b - a for a, b in zip(*e[:2])) != (-1, -1) + (0,) * (self.rank - 2):
            raise ArithmeticError("the row of the null class is not minus the rank")
        return e

    @cached_property
    def sym(self) -> tuple:
        e = self.euler
        s = tuple(tuple(a + b for a, b in zip(row, col)) for row, col in zip(e, zip(*e)))
        if any(sum(map(mul, row, self.delta)) for row in s):
            raise ArithmeticError("the null class is not in the radical of the symmetrized form")
        return s

    def sym_of(self, x) -> tuple:
        """S x for a class x."""
        return tuple(sum(map(mul, row, x)) for row in self.sym)


def _mul(a, b) -> tuple:
    """Integer matrix product on tuples of rows."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def basis_sheaves(line: WeightData):
    """Basis objects in order: O, O(c), then S_{i,j} for the steps (i, j)
    of the record's basis index, in its order, so position u of the list
    is basis position u."""
    return [line_bundle(line), LineBundle(line, line.canonical()),
            *(simple_at(line, i, j) for i, j in line._k0.index)]


def class_of(s: IndecSheaf) -> tuple[int, ...]:
    """One read of the line's `classes` memo at the sheaf's key: (coeffs,
    c part) of a bundle's degree, (point, socle, length) of an arc, or
    a stalk's length.  Exact type tests dispatch, as in `sheaves._hom`."""
    classes, ts = s.line._k0.classes, type(s)
    if ts is LineBundle:
        d = s.degree
        return classes[d.coeffs, d.c_part]
    if ts is TorsionArc:
        a = s.arc
        return classes[s.point, a.socle, a.length]
    if ts is OrdinaryTorsion:
        return classes[s.length]
    raise ValueError("unsupported sheaf kind")


def euler_matrix(line: WeightData) -> tuple:
    return line._k0.euler


def euler_form(line: WeightData, x, y) -> int:
    """<x, y> = x^T E y for classes x and y, tuples or lists of the rank:
    one read of x in the line's `class_rows`, whose fill checks the rank
    of x, a rank check of y and one dot product."""
    t = line._k0
    row = t.class_rows[x if type(x) is tuple else tuple(x)]
    if len(y) != t.rank:
        raise ValueError("class vector of wrong rank")
    return sum(map(mul, row, y))


class WeylElement(Record):
    """Integer matrix preserving the symmetrized Euler form."""

    _fields = ("line", "matrix")

    def __post_init__(self):
        t = self.line._k0
        if len(self.matrix) != t.rank or any(len(row) != t.rank for row in self.matrix):
            raise ValueError("matrix of wrong size")
        # w^T S w is symmetric, so its upper triangle decides: entry (i, j)
        # is w_i . S w_j for columns w_i, w_j
        cols = tuple(zip(*self.matrix))
        for j, w in enumerate(cols):
            sw = t.sym_of(w)
            row = t.sym[j]
            for i in range(j + 1):
                if sum(map(mul, cols[i], sw)) != row[i]:
                    raise ValueError("matrix does not preserve the symmetrized form")

    @cached_property
    def _abs_length(self) -> int:
        """abs_length of the element, computed on first read and kept."""
        return _moved(self.line, self.line._k0.identity, self.matrix)


def _root(line: WeightData, s: IndecSheaf):
    """(r, c) for the reflection of an exceptional sheaf s on line: its
    class r and c = sym r, so that the reflection is the matrix 1 - r c^T.
    Each call checks the line, then reads c from the `roots` memo, whose
    fill checks <r, r> = 1 once per class modulo delta.  Its one caller,
    cox_of, has checked that s is exceptional (`tube.is_exc_sequence`)."""
    if s.line is not line and s.line != line:
        raise ValueError("sheaf over a different line")
    r = class_of(s)
    return r, line._k0.roots[(r[0] + r[1], *r[2:])]


def cox_of(line: WeightData, seq) -> WeylElement:
    """Product of the reflections of an exceptional sequence, in order.

    Any two exceptional sequences generating the same wide subcategory
    yield the same element; the identity corresponds to the empty one.

    The sequence [s] gives the reflection x - (<x,r> + <r,x>) r of the
    class r of s.  The sequence is checked once, so each member's
    self-Ext is read once, and then each member's root; a member over
    another line raises ValueError.  The product is accumulated on one
    integer matrix: right multiplication by 1 - r c^T is the rank-one
    update w <- w - (w r) c^T.  Only the result is constructed as a
    WeylElement, so the form is checked once, on it; the intermediate
    products preserve the form because each factor does.

    The line's `elements` memo builds the element on a product matrix's
    first use, so equal products return one object, checked once and
    with one kept abs_length, and a product that fails its form check
    is not stored.
    """
    seq = list(seq)
    if not tube.is_exc_sequence(seq, hom_dim_sheaf, ext_dim_sheaf):
        raise ValueError("not an exceptional sequence")
    t = line._k0
    w = list(map(list, t.identity))
    for s in seq:
        r, c = _root(line, s)
        for row in w:
            k = sum(map(mul, row, r))
            if k:
                row[:] = [x - k * y for x, y in zip(row, c)]
    return t.elements[tuple(map(tuple, w))]


def canonical_interval_sequence(line: WeightData):
    """Line bundles O(l) for 0 <= l <= c, ordered by (degree, point, step).

    The interval consists of 0, c and the single-branch elements j*x_i,
    one per step (i, j) of the record's basis index; that is exactly
    rank(K0) many bundles.
    """
    degs = [line.zero(), line.canonical(),
            *(line.element([j if k == i else 0 for k in range(line.n)])
              for i, j in line._k0.index)]
    degs.sort(key=lambda l: (l.degree(), l.coeffs, l.c_part))
    return [LineBundle(line, l) for l in degs]


def coxeter_element(line: WeightData) -> WeylElement:
    seq = canonical_interval_sequence(line)
    c = cox_of(line, seq)
    e = euler_matrix(line)
    if _mul(e, c.matrix) != tuple(tuple(-x for x in col) for col in zip(*e)):
        raise ArithmeticError("canonical sequence fails the coxeter identity")
    return c


def _moved(line: WeightData, a, b) -> int:
    """rank(b - a), plus one when delta lies in the column span of b - a.

    One fraction-free elimination (Bareiss, Math. Comp. 22, 1968) gives
    both: the columns of b - a are reduced to echelon form, and delta,
    appended as a last row that is never a pivot, is reduced against the
    same pivots.  After k pivots every entry below them is a (k+1)-minor,
    delta's row included, so each division by the previous pivot is
    exact; delta lies in the span of the columns exactly when its row
    ends at zero.  A row with a zero in the pivot column is left as it
    is when the pivot equals the previous one: (p x - 0 y) / p = x."""
    m = len(a)
    rows = [[y - x for x, y in zip(ca, cb)] for ca, cb in zip(zip(*a), zip(*b))]
    rows.append(list(line._k0.delta))
    rank, prev = 0, 1
    for c in range(m):
        piv = next((i for i in range(rank, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        p = top[c]
        for i in range(rank + 1, m + 1):
            f = rows[i][c]
            if f or p != prev:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        rank += 1
    return rank + int(not any(rows[m]))


def abs_length(w: WeylElement) -> int:
    """Dimension of the moved space, plus one when the null class is moved
    into reach: `_moved` of the identity and w.  Computable surrogate for
    reflection length: 0 on the identity, 1 on reflections, 2 on
    translations, rank(K0) on the coxeter element.  Read from the
    element's cached property, so it is computed once per element, and
    cox_of returns one element per product matrix from the line's
    `elements` memo, so equal products share the one length."""
    return w._abs_length


def nc_leq(u: WeylElement, v: WeylElement) -> bool:
    """Absolute-order comparison: lengths add along u, u^-1 v, v.

    The length of u^-1 v is `_moved` of u and v, with no inverse: from
    u^-1 v - 1 = u^-1 (v - u), the moved space of u^-1 v has the rank of
    v - u, and its span holds delta exactly when the span of v - u holds
    u delta.  Every reflection fixes delta, because S delta = 0, so
    every product of reflections does too, and u delta = delta.  Lengths
    are nonnegative, so u longer than v answers False with no
    elimination of v - u; both lengths are kept on their elements."""
    if u.line is not v.line and u.line != v.line:
        raise ValueError("elements over different lines")
    lu, lv = u._abs_length, v._abs_length
    return lu <= lv and lu + _moved(u.line, u.matrix, v.matrix) == lv
