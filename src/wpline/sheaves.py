"""Indecomposable coherent sheaves over a domestic weighted projective line.

Three kinds of indecomposables are modeled: line bundles O(l) on lines
with at most two weighted points (there every indecomposable bundle has
rank one), torsion arcs supported at a weighted point, and finite
torsion stalks at ordinary points.  Hom and Ext dimensions come from
closed case tables read off normal forms and arc data; neither builds a
sheaf, a grading element or an arc per call.  A second, independent Ext
path exists for cross-checking.

Hom between bundles O(a) -> O(b) is a borrow count read off the two
normal forms, max(0, b.c - a.c - #{i : b_i < a_i} + 1), without building
the element b - a; Hom from O(a) to an arc counts the windings of the
arc over the index a_i of its point.  Ext^1(a, b) = D Hom(b, tau a) by
Serre duality (Geigle-Lenzing), where tau is the shift by the dualizing
element omega, of normal form (p_i - 1; -2).  ext_dim_sheaf folds that
shift into the same counts (the derivation is in its docstring), so no
translate is built; the perpendicular calculus (tube.Universe) reads
its rows from these two closed forms.

The alternate Ext path reads dim_S off the raw degree a + omega - b
for bundles (dim_S reduces only its c part, by the carries of the
normal form), one composition-factor multiplicity of an arc
(Arc.multiplicity) against a bundle, and projective presentations for
torsion pairs.  Like ext_dim_sheaf it builds no grading element per
call.  It shares no helper with ext_dim_sheaf but the line guard, so
the two Ext paths remain independent (tests/test_verify.py checks
this).  The value classes are slotted and the line guards test identity
inline, calling _same_line only on a miss, because every object of a
query shares one WeightData.
"""

from __future__ import annotations

from operator import add, lt, sub

from . import tube
from ._record import Record
from .grading import GradeElement, WeightData, dim_S
from .nilpotent import Arc


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
    """Grading shift.  Torsion at a weighted point rotates its socle by
    the matching coefficient of l; ordinary torsion is fixed."""
    if isinstance(s, LineBundle):
        return LineBundle(s.line, s.degree + l)
    if isinstance(s, TorsionArc):
        step = l.coeffs[s.point]
        arc = Arc(s.arc.rank, (s.arc.socle + step) % s.arc.rank, s.arc.length)
        return TorsionArc(s.line, s.point, arc)
    return s


def hom_dim_sheaf(a: IndecSheaf, b: IndecSheaf) -> int:
    if a.line is not b.line:
        _same_line(a, b)
    if isinstance(a, LineBundle):
        if isinstance(b, LineBundle):
            # dim_S(b - a) is one more than the c part of the normal form
            # of b - a, which borrows one c for each coefficient of b below a's
            x, y = a.degree, b.degree
            t = y.c_part - x.c_part - sum(map(lt, y.coeffs, x.coeffs))
            return t + 1 if t >= 0 else 0
        if isinstance(b, TorsionArc):
            # a map lands on each factor whose index matches the degree
            # coefficient at the supporting point: the first one is r
            # steps above the socle, then one every winding
            p, length = b.arc.rank, b.arc.length
            r = (a.degree.coeffs[b.point] - b.arc.socle) % p
            return 0 if r >= length else (length - 1 - r) // p + 1
        return b.length
    if isinstance(b, LineBundle):
        return 0
    if isinstance(a, TorsionArc) and isinstance(b, TorsionArc):
        if a.point != b.point:
            return 0
        return tube.hom_dim(a.arc, b.arc)
    if isinstance(a, OrdinaryTorsion) and isinstance(b, OrdinaryTorsion):
        if a.point_id != b.point_id:
            return 0
        return min(a.length, b.length)
    return 0


def ext_dim_sheaf(a: IndecSheaf, b: IndecSheaf) -> int:
    """Ext^1(a, b) = D Hom(b, tau a) by Serre duality, in closed form.

    tau is the shift by omega = (p_i - 1; -2), so every case is a Hom
    count of hom_dim_sheaf with the shift folded in:

    - O(x) -> O(y): tau O(x) = O(z) with z_i = x_i - 1 and one c carried
      where x_i >= 1, z_i = p_i - 1 where x_i = 0, and z.c = x.c - 2 plus
      the carries.  In the borrow count of Hom(O(y), O(z)) a carry
      survives its borrow [y_i > z_i] exactly when y_i < x_i, and no y_i
      exceeds p_i - 1, so t = x.c - y.c - 2 + #{i : y_i < x_i}.
    - bundle -> torsion: Hom(torsion, bundle) = 0.
    - arc a at point i -> O(y): tau a is a with its socle moved back one
      step, so the windings of Hom(O(y), tau a) start at
      r = (y_i - a.socle + 1) mod p.
    - ordinary torsion of length l -> bundle: tau fixes it, so l.
    - two arcs at one point: tube.ext_dim; two ordinary stalks at one
      point: the shorter length; every other pair: 0.
    """
    if a.line is not b.line:
        _same_line(a, b)
    if isinstance(a, LineBundle):
        if isinstance(b, LineBundle):
            x, y = a.degree, b.degree
            t = x.c_part - y.c_part - 2 + sum(map(lt, y.coeffs, x.coeffs))
            return t + 1 if t >= 0 else 0
        return 0
    if isinstance(b, LineBundle):
        if isinstance(a, TorsionArc):
            p, length = a.arc.rank, a.arc.length
            r = (b.degree.coeffs[a.point] - a.arc.socle + 1) % p
            return 0 if r >= length else (length - 1 - r) // p + 1
        return a.length
    if isinstance(a, TorsionArc) and isinstance(b, TorsionArc):
        return tube.ext_dim(a.arc, b.arc) if a.point == b.point else 0
    if isinstance(a, OrdinaryTorsion) and isinstance(b, OrdinaryTorsion):
        return min(a.length, b.length) if a.point_id == b.point_id else 0
    return 0


def ext_dim_sheaf_alt(a: IndecSheaf, b: IndecSheaf) -> int:
    """Independent Ext path: direct dual-degree formula for bundles,
    presentation-based computation for torsion pairs."""
    if a.line is not b.line:
        _same_line(a, b)
    if isinstance(a, LineBundle):
        if isinstance(b, LineBundle):
            # dim_S of the raw degree a + omega - b
            x, y, omega = a.degree, b.degree, a.line.dualizing()
            return dim_S(a.line, map(sub, map(add, x.coeffs, omega.coeffs), y.coeffs),
                         x.c_part + omega.c_part - y.c_part)
        return 0
    if isinstance(b, LineBundle):
        if isinstance(a, TorsionArc):
            # the factors of a with the index of b's degree at the point, plus one
            return a.arc.multiplicity(b.degree.coeffs[a.point] + 1)
        return a.length
    if isinstance(a, TorsionArc) and isinstance(b, TorsionArc):
        if a.point != b.point:
            return 0
        return tube.ext_dim_via_presentation(a.arc, b.arc)
    if isinstance(a, OrdinaryTorsion) and isinstance(b, OrdinaryTorsion):
        if a.point_id != b.point_id:
            return 0
        return tube.ext_dim_via_presentation(Arc(1, 0, a.length), Arc(1, 0, b.length))
    return 0


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
