"""Indecomposable coherent sheaves over a domestic weighted projective line.

Three kinds of indecomposables are modeled: line bundles O(l) on lines
with at most two weighted points (there every indecomposable bundle has
rank one), torsion arcs supported at a weighted point, and finite
torsion stalks at ordinary points.  Hom dimensions come from a closed
case table; Ext is Hom into the shift by the dualizing element, and a
second, independent computation path exists for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tube
from .grading import GradeElement, WeightData, dim_S
from .nilpotent import Arc


@dataclass(frozen=True)
class LineBundle:
    line: WeightData
    degree: GradeElement

    def __post_init__(self):
        if len(self.line.weighted_indices()) > 2:
            raise ValueError("indecomposable bundles of rank >= 2 are not modeled; "
                             "use torsion-only queries on this line")
        if self.degree.line != self.line:
            raise ValueError("degree from a different line")


@dataclass(frozen=True)
class TorsionArc:
    """Torsion sheaf at the weighted point with index `point`."""

    line: WeightData
    point: int
    arc: Arc

    def __post_init__(self):
        if self.point not in self.line.weighted_indices():
            raise ValueError("torsion arcs live at weighted points")
        if self.arc.rank != self.line.weights[self.point]:
            raise ValueError("arc rank must equal the point weight")


@dataclass(frozen=True)
class OrdinaryTorsion:
    """Torsion stalk of uniserial length `length` at an ordinary point."""

    line: WeightData
    point_id: str
    length: int

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


def ordinary_simple(line: WeightData, point_id: str) -> OrdinaryTorsion:
    return OrdinaryTorsion(line, point_id, 1)


def _same_line(a: IndecSheaf, b: IndecSheaf):
    if a.line != b.line:
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
    _same_line(a, b)
    if isinstance(a, LineBundle):
        if isinstance(b, LineBundle):
            return dim_S(b.degree - a.degree)
        if isinstance(b, TorsionArc):
            # a map lands on each factor whose index matches the degree
            # coefficient at the supporting point
            return b.arc.factor_counts()[a.degree.coeffs[b.point]]
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
        return tube.hom_dim(Arc(1, 0, a.length), Arc(1, 0, b.length))
    return 0


def ext_dim_sheaf(a: IndecSheaf, b: IndecSheaf) -> int:
    """Ext^1(a, b) = Hom(b, a twisted by the dualizing element)."""
    _same_line(a, b)
    return hom_dim_sheaf(b, shift(a, a.line.dualizing()))


def ext_dim_sheaf_alt(a: IndecSheaf, b: IndecSheaf) -> int:
    """Independent Ext path: direct dual-degree formula for bundles,
    presentation-based computation for torsion pairs."""
    _same_line(a, b)
    omega = a.line.dualizing()
    if isinstance(a, LineBundle):
        if isinstance(b, LineBundle):
            return dim_S(a.degree + omega - b.degree)
        return 0
    if isinstance(b, LineBundle):
        if isinstance(a, TorsionArc):
            m_i = b.degree.coeffs[a.point]
            return a.arc.factor_counts()[(m_i + 1) % a.arc.rank]
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
        return s.arc.length < s.arc.rank
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
