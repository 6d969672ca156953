"""Grothendieck-group layer over a line with at most two weighted points.

Classes live in the fixed basis ([O], [O(c)], simple torsion classes
with index 1..p-1 per weighted point); the Euler matrix tabulates
hom minus ext of the basis objects.  Exceptional sheaves give
reflections, exceptional sequences multiply out to group elements, and
the absolute-length order on those elements is the noncrossing order.

The preserved bilinear invariant checked on every group element is the
symmetrized Euler form: single reflections conjugate the raw form into
its transpose, so only the symmetrization is stable under all of them.
The full form identity (E C = -E^T) is still enforced for the
distinguished element produced by the canonical bundle sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, sheaves, tube
from .grading import WeightData
from .sheaves import (IndecSheaf, LineBundle, OrdinaryTorsion, TorsionArc,
                      ext_dim_sheaf, hom_dim_sheaf, line_bundle, simple_at)

_EULER_CACHE: dict[WeightData, tuple] = {}


def k_rank(line: WeightData) -> int:
    return 2 + sum(line.weights[i] - 1 for i in line.weighted_indices())


def basis_sheaves(line: WeightData):
    """Basis objects in order: O, O(c), then S_{i,j} for each weighted
    point i and 1 <= j <= p_i - 1."""
    out = [line_bundle(line), LineBundle(line, line.canonical())]
    for i in line.weighted_indices():
        for j in range(1, line.weights[i]):
            out.append(simple_at(line, i, j))
    return out


def _basis_index(line: WeightData, point: int, j: int) -> int:
    idx = 2
    for i in line.weighted_indices():
        if i == point:
            return idx + j - 1
        idx += line.weights[i] - 1
    raise ValueError("not a weighted point")


def delta_class(line: WeightData) -> tuple[int, ...]:
    """The null class [O(c)] - [O]."""
    m = k_rank(line)
    vec = [0] * m
    vec[0] = -1
    vec[1] = 1
    return tuple(vec)


def _simple_class(line: WeightData, point: int, j: int) -> tuple[int, ...]:
    m = k_rank(line)
    p = line.weights[point]
    j = j % p
    vec = [0] * m
    if j != 0:
        vec[_basis_index(line, point, j)] = 1
        return tuple(vec)
    # the index-0 simple closes the cycle: delta minus the other p-1
    vec[0] = -1
    vec[1] = 1
    for jj in range(1, p):
        vec[_basis_index(line, point, jj)] -= 1
    return tuple(vec)


def class_of(s: IndecSheaf) -> tuple[int, ...]:
    line = s.line
    m = k_rank(line)
    if isinstance(s, LineBundle):
        vec = [0] * m
        vec[0] = 1
        d = delta_class(line)
        for u in range(m):
            vec[u] += s.degree.c_part * d[u]
        for i in line.weighted_indices():
            for j in range(1, s.degree.coeffs[i] + 1):
                sc = _simple_class(line, i, j)
                for u in range(m):
                    vec[u] += sc[u]
        return tuple(vec)
    if isinstance(s, TorsionArc):
        vec = [0] * m
        for v in s.arc.factors():
            sc = _simple_class(line, s.point, v)
            for u in range(m):
                vec[u] += sc[u]
        return tuple(vec)
    if isinstance(s, OrdinaryTorsion):
        d = delta_class(line)
        return tuple(s.length * x for x in d)
    raise ValueError("unsupported sheaf kind")


def euler_matrix(line: WeightData) -> tuple:
    cached = _EULER_CACHE.get(line)
    if cached is None:
        basis = basis_sheaves(line)
        cached = tuple(tuple(hom_dim_sheaf(a, b) - ext_dim_sheaf(a, b) for b in basis)
                       for a in basis)
        _EULER_CACHE[line] = cached
    return cached


def euler_form(line: WeightData, x, y) -> int:
    e = euler_matrix(line)
    m = k_rank(line)
    if len(x) != m or len(y) != m:
        raise ValueError("class vector of wrong rank")
    return sum(x[u] * e[u][v] * y[v] for u in range(m) for v in range(m))


def _symmetrized(line: WeightData):
    e = euler_matrix(line)
    m = k_rank(line)
    return tuple(tuple(e[u][v] + e[v][u] for v in range(m)) for u in range(m))


@dataclass(frozen=True)
class WeylElement:
    """Integer matrix preserving the symmetrized Euler form."""

    line: WeightData
    matrix: tuple

    def __post_init__(self):
        m = k_rank(self.line)
        if len(self.matrix) != m or any(len(row) != m for row in self.matrix):
            raise ValueError("matrix of wrong size")
        sym = _symmetrized(self.line)
        mt = linalg.transpose([list(r) for r in self.matrix])
        prod = linalg.mat_mul(linalg.mat_mul(mt, [list(r) for r in sym]),
                              [list(r) for r in self.matrix])
        if [[Fraction(x) for x in row] for row in sym] != prod:
            raise ValueError("matrix does not preserve the symmetrized form")

    def apply(self, x):
        return tuple(int(v) for v in linalg.mat_vec([list(r) for r in self.matrix], list(x)))

    def compose(self, other: "WeylElement") -> "WeylElement":
        if self.line != other.line:
            raise ValueError("elements over different lines")
        prod = linalg.mat_mul([list(r) for r in self.matrix],
                              [list(r) for r in other.matrix])
        return WeylElement(self.line, tuple(tuple(int(x) for x in row) for row in prod))

    def inverse(self) -> "WeylElement":
        inv = linalg.invert([list(r) for r in self.matrix])
        if inv is None:
            raise ValueError("singular matrix")
        rows = []
        for row in inv:
            out = []
            for x in row:
                if x.denominator != 1:
                    raise ValueError("inverse is not integral")
                out.append(int(x))
            rows.append(tuple(out))
        return WeylElement(self.line, tuple(rows))

    def is_identity(self) -> bool:
        m = k_rank(self.line)
        return all(self.matrix[u][v] == (1 if u == v else 0)
                   for u in range(m) for v in range(m))


def identity_weyl(line: WeightData) -> WeylElement:
    m = k_rank(line)
    return WeylElement(line, tuple(tuple(1 if u == v else 0 for v in range(m))
                                   for u in range(m)))


def reflection_of_class(line: WeightData, r) -> WeylElement:
    """s(x) = x - (<x,r> + <r,x>) r, defined when <r,r> = 1."""
    if euler_form(line, r, r) != 1:
        raise ValueError("class does not have unit self-pairing")
    m = k_rank(line)
    e = euler_matrix(line)
    cols = []
    for j in range(m):
        ej = [1 if u == j else 0 for u in range(m)]
        c = sum(e[j][v] * r[v] for v in range(m)) + sum(r[u] * e[u][j] for u in range(m))
        cols.append(tuple(ej[u] - c * r[u] for u in range(m)))
    matrix = tuple(tuple(cols[j][u] for j in range(m)) for u in range(m))
    return WeylElement(line, matrix)


def reflection(line: WeightData, s: IndecSheaf) -> WeylElement:
    if not sheaves.is_exceptional_sheaf(s) or ext_dim_sheaf(s, s) != 0:
        raise ValueError("reflections come from exceptional sheaves")
    return reflection_of_class(line, class_of(s))


def cox_of(line: WeightData, seq) -> WeylElement:
    """Product of the reflections of an exceptional sequence, in order.

    Any two exceptional sequences generating the same wide subcategory
    yield the same element; the identity corresponds to the empty one.
    """
    seq = list(seq)
    if not tube.is_exc_sequence(seq, hom_dim_sheaf, ext_dim_sheaf):
        raise ValueError("not an exceptional sequence")
    out = identity_weyl(line)
    for s in seq:
        out = out.compose(reflection(line, s))
    return out


def canonical_interval_sequence(line: WeightData):
    """Line bundles O(l) for 0 <= l <= c, ordered by (degree, point, step).

    The interval consists of 0, the single-branch elements j*x_i, and c;
    that is exactly rank(K0) many bundles.
    """
    degs = [line.zero(), line.canonical()]
    for i in line.weighted_indices():
        for j in range(1, line.weights[i]):
            coeffs = [0] * line.n
            coeffs[i] = j
            degs.append(line.element(coeffs))
    degs.sort(key=lambda l: (l.degree(), l.coeffs, l.c_part))
    return [LineBundle(line, l) for l in degs]


def coxeter_element(line: WeightData) -> WeylElement:
    seq = canonical_interval_sequence(line)
    c = cox_of(line, seq)
    e = euler_matrix(line)
    m = k_rank(line)
    prod = linalg.mat_mul([list(r) for r in e], [list(r) for r in c.matrix])
    neg_t = [[-e[v][u] for v in range(m)] for u in range(m)]
    if prod != [[Fraction(x) for x in row] for row in neg_t]:
        raise ArithmeticError("canonical sequence fails the coxeter identity")
    return c


def abs_length(w: WeylElement) -> int:
    """Dimension of the moved space, plus one when the null class is moved
    into reach.  Computable surrogate for reflection length: 0 on the
    identity, 1 on reflections, 2 on translations, rank(K0) on the
    coxeter element."""
    m = k_rank(w.line)
    moved = [[Fraction(w.matrix[u][v] - (1 if u == v else 0)) for v in range(m)]
             for u in range(m)]
    cols = linalg.transpose(moved)
    r = linalg.rank(cols)
    d = list(delta_class(w.line))
    bonus = 1 if linalg.in_span(cols, [Fraction(x) for x in d]) else 0
    return r + bonus


def nc_leq(u: WeylElement, v: WeylElement) -> bool:
    """Absolute-order comparison: lengths add along u, u^{-1} v, v."""
    if u.line != v.line:
        raise ValueError("elements over different lines")
    return abs_length(u) + abs_length(u.inverse().compose(v)) == abs_length(v)
