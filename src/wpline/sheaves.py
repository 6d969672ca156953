"""Indecomposable coherent sheaves over a domestic weighted projective line.

Three kinds of indecomposables are modeled: line bundles O(l) on lines
with at most two weighted points (there every indecomposable bundle has
rank one), torsion arcs supported at a weighted point, and finite
torsion stalks at ordinary points.  Hom and Ext dimensions come from
one closed case table read off normal forms and arc data.  A second,
independent Ext path exists for cross-checking.

Ext^1(a, b) = D Hom(b, tau a) by Serre duality (Geigle-Lenzing), where
tau is the shift by the dualizing element omega.  So one case table,
_hom(a, b, k) = dim Hom(a, tau^k b) for k in {0, 1}, serves both
hom_dim_sheaf (k = 0) and ext_dim_sheaf (k = 1, read as Hom(b, tau a)),
with the shift folded into its counts (the derivation is in its
docstring).  No sheaf, grading element or arc is built per call, and
the perpendicular calculus (tube.Universe) reads its rows from these
two closed forms.

The alternate Ext path reads dim_S off the raw degree a + omega - b
for bundles (dim_S reduces only its c part, by the carries of the
normal form), one composition-factor multiplicity of an arc
(Arc.multiplicity) against a bundle, and the standard resolution for
torsion pairs.  Like ext_dim_sheaf it builds no grading element per
call, though a pair of ordinary stalks builds two rank-1 arcs for the
oracle's cached count.  It shares no helper with ext_dim_sheaf but the
line guard, so the two Ext paths remain independent
(tests/test_verify.py checks this).

The value classes are slotted and the line guards test identity
inline, calling _same_line only on a miss, because every object of a
query shares one WeightData.  The three kinds have no subclasses, so
_hom and ext_dim_sheaf_alt read type(a) and type(b) once and dispatch
on exact types, cheaper than isinstance on the query path.
"""

from __future__ import annotations

from operator import add, le, lt, sub

from . import tube
from ._record import Record
from .grading import GradeElement, WeightData, dim_S
from .tube import Arc


class LineBundle(Record):
    __slots__ = _fields = ("line", "degree")

    def __post_init__(self):
        if len(self.line.weighted_indices()) > 2:
            raise ValueError("indecomposable bundles of rank >= 2 are not modeled; "
                             "use torsion-only queries on this line")
        if self.degree.line is not self.line and self.degree.line != self.line:
            raise ValueError("degree from a different line")


class TorsionArc(Record):
    """Torsion sheaf at the weighted point with index `point`."""

    __slots__ = _fields = ("line", "point", "arc")

    def __post_init__(self):
        if self.point not in self.line.weighted_indices():
            raise ValueError("torsion arcs live at weighted points")
        if self.arc.rank != self.line.weights[self.point]:
            raise ValueError("arc rank must equal the point weight")


class OrdinaryTorsion(Record):
    """Torsion stalk of uniserial length `length` at an ordinary point."""

    __slots__ = _fields = ("line", "point_id", "length")

    def __post_init__(self):
        weighted_labels = {self.line.points[i] for i in self.line.weighted_indices()}
        if self.point_id in weighted_labels:
            raise ValueError("ordinary point id clashes with a weighted point")
        if self.length < 1:
            raise ValueError("length must be positive")


IndecSheaf = LineBundle | TorsionArc | OrdinaryTorsion


def line_bundle(line: WeightData, coeffs=None, c_part=0) -> LineBundle:
    if isinstance(coeffs, GradeElement):
        return LineBundle(line, coeffs)
    if coeffs is None:
        coeffs = (0,) * line.n
    return LineBundle(line, line.element(coeffs, c_part))


def simple_at(line: WeightData, point: int, j: int) -> TorsionArc:
    """The simple torsion sheaf with index j at a weighted point."""
    p = line.weights[point]
    return TorsionArc(line, point, Arc(p, j % p, 1))


def stack_at(line: WeightData, point: int, top_j: int, m: int) -> TorsionArc:
    """Length-m torsion sheaf whose top simple has index top_j."""
    p = line.weights[point]
    return TorsionArc(line, point, Arc(p, (top_j - m + 1) % p, m))


def _same_line(a: IndecSheaf, b: IndecSheaf):
    if a.line is not b.line and a.line != b.line:
        raise ValueError("sheaves from different lines")


def shift(s: IndecSheaf, l: GradeElement) -> IndecSheaf:
    """Grading shift by l, which must lie over the line of s.  Torsion at a
    weighted point rotates its socle by the matching coefficient of l;
    ordinary torsion is fixed."""
    if isinstance(s, LineBundle):
        return LineBundle(s.line, s.degree + l)
    if s.line is not l.line and s.line != l.line:
        raise ValueError("shift by an element of a different line")
    if isinstance(s, TorsionArc):
        step = l.coeffs[s.point]
        arc = Arc(s.arc.rank, (s.arc.socle + step) % s.arc.rank, s.arc.length)
        return TorsionArc(s.line, s.point, arc)
    return s


def _hom(a: IndecSheaf, b: IndecSheaf, k: int) -> int:
    """dim Hom(a, tau^k b) for k in {0, 1}, without building tau b.

    tau is the shift by omega = (n - 2)c - sum x_i, of raw coefficients
    (-1, ..., -1; n - 2) over the n points, and it enters in three places:

    - O(x) -> O(y): Hom is dim S of y + k omega - x, whose coefficients
      y_i - x_i - k lie in [-p_i, p_i - 1] and whose c part is
      y.c - x.c + k(n - 2).  Normalizing borrows one c exactly where a
      coefficient is negative, so the normal form has c part
      t = y.c - x.c + k(n - 2) - #{i : y_i < x_i + k}, and with at most
      two weighted points dim S of it is t + 1 when t >= 0, else 0.
    - O(x) -> an arc at point i: a map lands on each composition factor
      whose index is x_i, the first one r steps above the socle, then
      one per turn (tube.windings).  tau moves the socle back one step,
      so r = (x_i - socle + k) mod p_i.
    - two arcs at one point: tube.hom_dim for k = 0; for k = 1,
      Hom(a, tau b) = Ext^1(b, a), which is tube.ext_dim(b, a).

    tau fixes ordinary torsion, so O(x) -> a stalk of length l gives l
    and two stalks at one point the shorter length, for either k.  No
    map goes from torsion to a bundle (tau b is a bundle when b is one)
    or between different points.
    """
    if a.line is not b.line:
        _same_line(a, b)
    ta, tb = type(a), type(b)
    if ta is LineBundle:
        if tb is LineBundle:
            # y_i < x_i + k is y_i <= x_i when k = 1
            x, y = a.degree, b.degree
            t = y.c_part - x.c_part + k * (len(y.coeffs) - 2) \
                - sum(map(le if k else lt, y.coeffs, x.coeffs))
            return t + 1 if t >= 0 else 0
        if tb is TorsionArc:
            p = b.arc.rank
            r = (a.degree.coeffs[b.point] - b.arc.socle + k) % p
            return tube.windings(r, b.arc.length, p)
        return b.length
    if tb is LineBundle or ta is not tb:
        return 0
    if ta is TorsionArc:
        if a.point != b.point:
            return 0
        return tube.ext_dim(b.arc, a.arc) if k else tube.hom_dim(a.arc, b.arc)
    return min(a.length, b.length) if a.point_id == b.point_id else 0


def hom_dim_sheaf(a: IndecSheaf, b: IndecSheaf) -> int:
    return _hom(a, b, 0)


def ext_dim_sheaf(a: IndecSheaf, b: IndecSheaf) -> int:
    """Ext^1(a, b) = D Hom(b, tau a) by Serre duality."""
    return _hom(b, a, 1)


def ext_dim_sheaf_alt(a: IndecSheaf, b: IndecSheaf) -> int:
    """Independent Ext path: direct dual-degree formula for bundles,
    the standard resolution for torsion pairs."""
    if a.line is not b.line:
        _same_line(a, b)
    ta, tb = type(a), type(b)
    if ta is LineBundle:
        if tb is LineBundle:
            # dim_S of the raw degree a + omega - b
            x, y, omega = a.degree, b.degree, a.line.dualizing()
            return dim_S(a.line, map(sub, map(add, x.coeffs, omega.coeffs), y.coeffs),
                         x.c_part + omega.c_part - y.c_part)
        return 0
    if tb is LineBundle:
        if ta is TorsionArc:
            # the factors of a with the index of b's degree at the point, plus one
            return a.arc.multiplicity(b.degree.coeffs[a.point] + 1)
        return a.length
    if ta is not tb:
        return 0
    if ta is TorsionArc:
        if a.point != b.point:
            return 0
        return tube.ext_dim_via_presentation(a.arc, b.arc)
    if a.point_id != b.point_id:
        return 0
    return tube.ext_dim_via_presentation(Arc(1, 0, a.length), Arc(1, 0, b.length))


def is_exceptional_sheaf(s: IndecSheaf) -> bool:
    if isinstance(s, LineBundle):
        return True
    if isinstance(s, TorsionArc):
        return tube.is_exceptional(s.arc)
    return False


def perp_membership(x: IndecSheaf, gens) -> bool:
    """Right-perpendicular test: Hom and Ext from every generator vanish."""
    return all(hom_dim_sheaf(g, x) == 0 and ext_dim_sheaf(g, x) == 0 for g in gens)


def sheaf_sort_key(s: IndecSheaf):
    if isinstance(s, LineBundle):
        return (0, s.degree.degree(), s.degree.coeffs, s.degree.c_part)
    if isinstance(s, TorsionArc):
        return (1, s.point, s.arc.socle, s.arc.length)
    return (2, s.point_id, s.length)


def format_sheaf(s: IndecSheaf) -> str:
    if isinstance(s, LineBundle):
        coeffs = ",".join(str(c) for c in s.degree.coeffs)
        return f"O({coeffs};{s.degree.c_part})"
    if isinstance(s, TorsionArc):
        label = s.line.points[s.point]
        if s.arc.length == 1:
            return f"S({label},{s.arc.socle})"
        return f"S[{s.arc.length}]({label},{s.arc.top})"
    return f"ord({s.point_id},{s.length})"
