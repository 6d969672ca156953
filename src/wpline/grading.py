"""Grading group of a weighted projective line.

The grading group for weights (p_1, ..., p_n) is generated by x_1, ..., x_n
subject to p_1*x_1 = ... = p_n*x_n.  The common value is the canonical
element c.  Every element has a unique normal form

    l_1*x_1 + ... + l_n*x_n + l*c    with 0 <= l_i < p_i,

stored here as (coeffs, c_part).  The dualizing element is
omega = (n-2)*c - sum(x_i), and the degree map sends x_i to p/p_i where
p = lcm(p_1, ..., p_n).  The sign of degree(omega) splits weight types into
domestic, tubular and wild.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import add, floordiv, mod

from ._record import Record


class WeightData(Record):
    """Weight sequence with point labels, padded to at least two points.

    Points of weight 1 are legitimate members of the sequence; appending
    them never changes the group, the degree map or dim_S, which is what
    makes the padding harmless.

    `p`, `k0_rank`, `dualizing()`, `weighted_indices()` and `_k0`, the
    line's Grothendieck-group record, are computed once per instance and
    kept outside the fields, so equality, the field-tuple hash of Record
    and repr see only the weights and the labels.  The class keeps its
    `__dict__` for these per-instance constants.
    """

    _fields = ("weights", "points")

    def __post_init__(self):
        if any(p < 1 for p in self.weights):
            raise ValueError("weights must be positive")
        if len(self.weights) != len(self.points):
            raise ValueError("one label per weight required")
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be distinct")
        if len(self.weights) < 2:
            raise ValueError("use make_line(), which pads to two points")

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def p(self) -> int:
        return math.lcm(*self.weights)

    @cached_property
    def k0_rank(self) -> int:
        """The rank 2 + sum(p_i - 1) of the Grothendieck group, the length
        of a full exceptional sequence."""
        return 2 + sum(self.weights) - self.n

    def element(self, coeffs, c_part=0) -> "GradeElement":
        return normalize(self, tuple(coeffs), c_part)

    def zero(self) -> "GradeElement":
        return self.element((0,) * self.n)

    def canonical(self) -> "GradeElement":
        """c, the common value of the p_i * x_i."""
        return self.element((0,) * self.n, 1)

    def dualizing(self) -> "GradeElement":
        """omega = (n-2)*c - sum(x_i)."""
        return self._omega

    def weighted_indices(self) -> tuple[int, ...]:
        """Indices of the points with weight at least 2."""
        return self._weighted

    @cached_property
    def _omega(self) -> "GradeElement":
        return self.element((-1,) * self.n, self.n - 2)

    @cached_property
    def _weighted(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.weights) if p >= 2)

    @cached_property
    def _k0(self):
        """The line's K0 record; only K-theory callers load `ktheory`."""
        from .ktheory import _LineTable
        return _LineTable(self)


def make_line(weights) -> WeightData:
    """Build WeightData from a raw weight list, padding to two points.

    Labels follow the usual normalization: the first three points sit at
    inf, 0 and 1, later ones get symbolic names.
    """
    ws = [int(w) for w in weights]
    while len(ws) < 2:
        ws.append(1)
    names = []
    for i in range(len(ws)):
        if i == 0:
            names.append("inf")
        elif i == 1:
            names.append("0")
        elif i == 2:
            names.append("1")
        else:
            names.append(f"l{i + 1}")
    return WeightData(tuple(ws), tuple(names))


def parse_weights(text: str) -> list[int]:
    """Parse a comma-separated weight list such as "2,3,5"."""
    try:
        ws = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad weight list {text!r}") from exc
    if not ws or any(w < 1 for w in ws):
        raise ValueError(f"bad weight list {text!r}")
    return ws


class GradeElement(Record):
    """Normal form l_1*x_1 + ... + l_n*x_n + l*c with 0 <= l_i < p_i."""

    __slots__ = _fields = ("line", "coeffs", "c_part")

    def __add__(self, other: "GradeElement") -> "GradeElement":
        if self.line is not other.line and self.line != other.line:
            raise ValueError("elements of different grading groups")
        return normalize(self.line, map(add, self.coeffs, other.coeffs),
                         self.c_part + other.c_part)

    def degree(self) -> int:
        p = self.line.p
        return sum(a * (p // pi) for a, pi in zip(self.coeffs, self.line.weights)) \
            + self.c_part * p

    def __str__(self) -> str:
        body = ",".join(str(a) for a in self.coeffs)
        return f"({body};{self.c_part})"


def normalize(line: WeightData, coeffs, c_part: int) -> GradeElement:
    """Reduce raw coefficients to the unique normal form: each a_i
    becomes a_i mod p_i and carries a_i // p_i canonical steps."""
    coeffs = tuple(coeffs)
    ws = line.weights
    if len(coeffs) != len(ws):
        raise ValueError("coefficient count does not match the weight count")
    return GradeElement(line, tuple(map(mod, coeffs, ws)), c_part + sum(map(floordiv, coeffs, ws)))


def line_invariants(line: WeightData):
    """Return (c, omega, type), type the domestic/tubular/wild split by
    the sign of degree(omega), as the name `classify` prints."""
    omega = line.dualizing()
    d = omega.degree()
    kind = "domestic" if d < 0 else "tubular" if d == 0 else "wild"
    return line.canonical(), omega, kind


def dim_S(line: WeightData, coeffs, c_part: int) -> int:
    """Dimension of the component of the coordinate ring in the degree
    with raw coefficients `coeffs` and c part `c_part`.

    Monomials X_1^a X_2^b prod_{i>=3} X_i^{c_i} with a, b >= 0 and
    0 <= c_i < p_i form a basis; in a fixed torsion pattern the pairs
    (a, b) hitting the target are counted by the normal-form c part,
    c_part plus the carries sum(a_i // p_i) of normalize.  Only that
    part is reduced, so no GradeElement is built.
    """
    t = c_part + sum(map(floordiv, coeffs, line.weights))
    return t + 1 if t >= 0 else 0
