"""Value records against frozen dataclass twins with the same fields."""

import dataclasses
import itertools
from dataclasses import dataclass

import pytest

from wpline import ktheory as kt
from wpline import nilpotent as nil
from wpline import sheaves as sh
from wpline import tube
from wpline import widposet as wp
from wpline.grading import GradeElement, WeightData, make_line
from wpline.nilpotent import Arc


LINE2 = make_line((2,))


@dataclass(frozen=True)
class ArcTwin:
    rank: int
    socle: int
    length: int


@dataclass(frozen=True)
class NilpRepTwin:
    rank: int
    dims: tuple
    maps: tuple


@dataclass(frozen=True)
class WeightDataTwin:
    weights: tuple
    points: tuple


@dataclass(frozen=True)
class GradeElementTwin:
    line: WeightData
    coeffs: tuple
    c_part: int


@dataclass(frozen=True)
class LineBundleTwin:
    line: WeightData
    degree: GradeElement


@dataclass(frozen=True)
class TorsionArcTwin:
    line: WeightData
    point: int
    arc: Arc


@dataclass(frozen=True)
class OrdinaryTorsionTwin:
    line: WeightData
    point_id: str
    length: int


@dataclass(frozen=True)
class TubeWideFingerprintTwin:
    rank: int
    arcs: frozenset


@dataclass(frozen=True)
class WeylElementTwin:
    line: WeightData
    matrix: tuple


@dataclass(frozen=True)
class CInvDataTwin:
    per_point: tuple
    ordinary_support: frozenset
    contains_bundle: bool
    defining_exc: tuple


@dataclass(frozen=True)
class PosetNodeTwin:
    name: str
    mask: int
    exc_gens: int | None
    cinv: object


TWINS = {cls.__name__.removesuffix("Twin"): cls for cls in (
    ArcTwin, NilpRepTwin, WeightDataTwin, GradeElementTwin, LineBundleTwin, TorsionArcTwin,
    OrdinaryTorsionTwin, TubeWideFingerprintTwin, WeylElementTwin, CInvDataTwin, PosetNodeTwin)}


def samples():
    """Objects of every record class, a few of them equal but built apart."""
    line2, line22 = make_line((2,)), make_line((2, 2))
    seq = kt.canonical_interval_sequence(line22)
    poset = wp.build_poset(line2, -2, 3)
    objs = [
        Arc(2, 0, 1), Arc(2, 0, 1), Arc(2, 1, 1), Arc(3, 2, 4),
        nil.rep_of_arc(Arc(3, 1, 4)), nil.rep_of_arc(Arc(3, 1, 4)), nil.rep_of_arc(Arc(2, 0, 2)),
        line2, make_line((2,)), line22, make_line((2, 3)),
        line2.zero(), make_line((2,)).zero(), line2.canonical(), line22.dualizing(),
        sh.line_bundle(line2, (1, 0)), sh.line_bundle(make_line((2,)), (1, 0)),
        sh.line_bundle(line22, (0, 1), -1),
        sh.simple_at(line2, 0, 0), sh.simple_at(line2, 0, 0), sh.simple_at(line22, 1, 1),
        sh.OrdinaryTorsion(line2, "q", 1), sh.OrdinaryTorsion(line2, "q", 1),
        sh.OrdinaryTorsion(line2, "q", 2),
        *tube.enumerate_wide(2), tube.wide_closure([Arc(2, 0, 2)]),
        kt.cox_of(line22, seq), kt.cox_of(line22, seq), kt.cox_of(line22, seq[:2]),
        *wp.enumerate_wid_c(line2, ()), *wp.enumerate_wid_c(make_line((2,)), ()),
        *poset.nodes, *wp.build_poset(line2, -2, 3).nodes[:3],
    ]
    assert {type(x).__name__ for x in objs} == set(TWINS)
    return objs


SAMPLES = samples()
FIRST = {type(x).__name__: x for x in reversed(SAMPLES)}


def twin(obj):
    cls = TWINS[type(obj).__name__]
    return cls(*(getattr(obj, f.name) for f in dataclasses.fields(cls)))


def test_hash_and_repr_match_twins():
    for obj in SAMPLES:
        ref = twin(obj)
        assert hash(obj) == hash(ref), obj
        assert repr(obj) == repr(ref).replace(type(ref).__name__, type(obj).__name__, 1)


def test_equality_matches_twins():
    pairs = list(itertools.product(SAMPLES, repeat=2))
    assert sum(a == b and a is not b for a, b in pairs) > 20
    for a, b in pairs:
        if type(a) is type(b):
            assert (a == b, a != b) == (twin(a) == twin(b), twin(a) != twin(b)), (a, b)
        else:
            assert a != b and not a == b


def test_keyword_construction_matches_positional():
    for obj in SAMPLES:
        names = [f.name for f in dataclasses.fields(TWINS[type(obj).__name__])]
        values = [getattr(obj, n) for n in names]
        assert type(obj)(**dict(zip(names, values))) == type(obj)(*values) == obj


def test_equality_is_class_aware(monkeypatch):
    line = make_line((2,))
    for cls in (sh.TorsionArc, sh.OrdinaryTorsion):
        monkeypatch.setattr(cls, "__post_init__", lambda self: None)
    a, b = sh.TorsionArc(line, 0, 1), sh.OrdinaryTorsion(line, 0, 1)
    assert a != b and not a == b
    assert Arc(2, 0, 1) != nil.NilpRep(2, 0, 1)
    assert Arc(2, 0, 1).__eq__(nil.NilpRep(2, 0, 1)) is NotImplemented
    assert line != ((2, 1), ("inf", "0")) and Arc(2, 0, 1) != (2, 0, 1)
    assert line.zero().__eq__((line, (0, 0), 0)) is NotImplemented


def test_poset_node_ignores_its_universe():
    """A node holds no universe: its four fields alone give equality, hash
    and repr, and it has no attribute dict to hold one."""
    node = wp.build_poset(make_line((2,)), -2, 3).nodes[1]
    other = wp.PosetNode(node.name, node.mask, node.exc_gens, node.cinv)
    assert other == node and hash(other) == hash(node)
    assert repr(other) == repr(node) and "uni" not in repr(node)
    assert not hasattr(node, "uni") and not hasattr(node, "__dict__")


@pytest.mark.parametrize("cls_name", sorted(FIRST))
def test_records_refuse_assignment_and_deletion(cls_name):
    obj = FIRST[cls_name]
    before = twin(obj)
    for name in [f.name for f in dataclasses.fields(TWINS[cls_name])] + ["extra"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert twin(obj) == before


@pytest.mark.parametrize("build, message", [
    (lambda: Arc(0, 0, 1), "rank and length must be positive"),
    (lambda: Arc(2, 0, 0), "rank and length must be positive"),
    (lambda: Arc(2, 2, 1), "socle must be a vertex residue"),
    (lambda: WeightData((0, 1), ("a", "b")), "weights must be positive"),
    (lambda: WeightData((2, 1), ("a",)), "one label per weight required"),
    (lambda: WeightData((2, 1), ("a", "a")), "point labels must be distinct"),
    (lambda: WeightData((2,), ("a",)), "use make_line(), which pads to two points"),
    (lambda: sh.LineBundle(make_line((2, 2, 2)), make_line((2, 2, 2)).zero()),
     "indecomposable bundles of rank >= 2 are not modeled; use torsion-only queries on this line"),
    (lambda: sh.LineBundle(LINE2, make_line((2, 3)).zero()), "degree from a different line"),
    (lambda: sh.TorsionArc(LINE2, 1, Arc(2, 0, 1)), "torsion arcs live at weighted points"),
    (lambda: sh.TorsionArc(LINE2, 0, Arc(3, 0, 1)), "arc rank must equal the point weight"),
    (lambda: sh.OrdinaryTorsion(LINE2, "inf", 1), "ordinary point id clashes with a weighted point"),
    (lambda: sh.OrdinaryTorsion(LINE2, "q", 0), "length must be positive"),
    (lambda: kt.WeylElement(LINE2, ((1,),)), "matrix of wrong size"),
    (lambda: kt.WeylElement(LINE2, ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
     "matrix does not preserve the symmetrized form"),
])
def test_post_init_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
