"""Indecomposable sheaves: hom and ext dimensions, shifts, sequences."""

import itertools
import operator
import random

import pytest

from wpline.grading import make_line
from wpline import grading
from wpline import ktheory as kt
from wpline import sheaves as sh
from wpline import tube
from wpline.nilpotent import Arc
from test_grading import generator, scale, section_dim, sub


LINE2 = make_line((2,))
LINE11 = make_line((1, 1))
LINE23 = make_line((2, 3))


def is_exc_sequence(seq):
    return tube.is_exc_sequence(seq, sh.hom_dim_sheaf, sh.ext_dim_sheaf)


def bundles(line, lo, hi):
    g = generator(line, line.weighted_indices()[0]) if line.weighted_indices() \
        else line.canonical()
    return [sh.line_bundle(line, scale(g, k)) for k in range(lo, hi + 1)]


def test_line_bundle_accepts_coeffs_and_elements():
    a = sh.line_bundle(LINE2, (1, 0))
    b = sh.line_bundle(LINE2, generator(LINE2, 0))
    assert a == b


def test_bundle_hom_is_section_dimension():
    for k, l in itertools.product(range(-2, 3), repeat=2):
        a = sh.line_bundle(LINE2, (k, 0))
        b = sh.line_bundle(LINE2, (l, 0))
        d = scale(generator(LINE2, 0), l - k)
        assert sh.hom_dim_sheaf(a, b) == section_dim(d)


def test_bundle_ext_by_duality():
    omega = LINE2.dualizing()
    for k, l in itertools.product(range(-2, 3), repeat=2):
        a = sh.line_bundle(LINE2, (k, 0))
        b = sh.line_bundle(LINE2, (l, 0))
        d = scale(generator(LINE2, 0), k - l) + omega
        assert sh.ext_dim_sheaf(a, b) == section_dim(d)


def test_bundle_to_simple_congruence():
    O = sh.line_bundle(LINE2, (0, 0))
    assert sh.hom_dim_sheaf(O, sh.simple_at(LINE2, 0, 0)) == 1
    assert sh.hom_dim_sheaf(O, sh.simple_at(LINE2, 0, 1)) == 0
    for k in range(-3, 4):
        Ok = sh.line_bundle(LINE2, (k, 0))
        for j in (0, 1):
            assert sh.hom_dim_sheaf(Ok, sh.simple_at(LINE2, 0, j)) == (1 if j % 2 == k % 2 else 0)


def test_bundle_to_stack_counts_factors():
    O = sh.line_bundle(LINE23, (0, 0))
    # length 3 stack at the weight 3 point meets every congruence once
    full = sh.stack_at(LINE23, 1, 0, 3)
    assert sh.hom_dim_sheaf(O, full) == 1
    double = sh.stack_at(LINE23, 1, 1, 2)
    assert sh.hom_dim_sheaf(O, double) == 1
    assert sh.hom_dim_sheaf(sh.line_bundle(LINE23, (0, 2)), double) == 0


def test_no_maps_from_torsion_to_bundles():
    O = sh.line_bundle(LINE2, (0, 0))
    S0 = sh.simple_at(LINE2, 0, 0)
    S1 = sh.simple_at(LINE2, 0, 1)
    assert sh.hom_dim_sheaf(S0, O) == 0
    assert sh.ext_dim_sheaf(O, S0) == 0
    # only the simple whose translate matches the congruence extends O
    assert sh.ext_dim_sheaf(S0, O) == 0
    assert sh.ext_dim_sheaf(S1, O) == 1


def test_ordinary_point_dimensions():
    for line, ids in ((LINE11, ("0",)), (LINE2, ("x",))):
        O = sh.line_bundle(line, (0, 0))
        t = sh.OrdinaryTorsion(line, ids[0], 1)
        assert sh.hom_dim_sheaf(O, t) == 1
        assert sh.hom_dim_sheaf(t, O) == 0
        assert sh.ext_dim_sheaf(O, t) == 0
        assert sh.ext_dim_sheaf(t, O) == 1
        assert sh.hom_dim_sheaf(t, t) == 1
        assert sh.ext_dim_sheaf(t, t) == 1


def test_shift_compose_and_identity():
    z = LINE2.zero()
    c = LINE2.canonical()
    x = generator(LINE2, 0)
    objs = [sh.line_bundle(LINE2, (1, 0), -1),
            sh.simple_at(LINE2, 0, 1),
            sh.stack_at(LINE2, 0, 0, 2),
            sh.OrdinaryTorsion(LINE2, "q", 1)]
    for s in objs:
        assert sh.shift(s, z) == s
        assert sh.shift(sh.shift(s, x), c) == sh.shift(s, x + c)


def test_shift_rotates_torsion_socle():
    S0 = sh.simple_at(LINE2, 0, 0)
    x = generator(LINE2, 0)
    assert sh.shift(S0, x) == sh.simple_at(LINE2, 0, 1)
    # the canonical class fixes every torsion sheaf
    assert sh.shift(S0, LINE2.canonical()) == S0
    t = sh.OrdinaryTorsion(LINE2, "q", 1)
    assert sh.shift(t, x) == t


def test_shift_invariance_of_dimensions():
    pairs = [(sh.line_bundle(LINE2, (0, 0)), sh.simple_at(LINE2, 0, 0)),
             (sh.line_bundle(LINE2, (1, 0)), sh.line_bundle(LINE2, (0, 1))),
             (sh.stack_at(LINE2, 0, 0, 2), sh.simple_at(LINE2, 0, 1))]
    for l in (generator(LINE2, 0), LINE2.canonical(), LINE2.dualizing()):
        for a, b in pairs:
            assert sh.hom_dim_sheaf(a, b) == sh.hom_dim_sheaf(sh.shift(a, l), sh.shift(b, l))
            assert sh.ext_dim_sheaf(a, b) == sh.ext_dim_sheaf(sh.shift(a, l), sh.shift(b, l))


def test_ext_paths_agree_on_sample():
    objs = bundles(LINE23, -2, 2) + [
        sh.simple_at(LINE23, 0, 0), sh.simple_at(LINE23, 0, 1),
        sh.simple_at(LINE23, 1, 2), sh.stack_at(LINE23, 1, 1, 2),
        sh.OrdinaryTorsion(LINE23, "q", 1)]
    for a, b in itertools.product(objs, repeat=2):
        assert sh.ext_dim_sheaf(a, b) == sh.ext_dim_sheaf_alt(a, b), (a, b)


def test_torsion_dimensions_cross_points_vanish():
    s = sh.simple_at(LINE23, 0, 0)
    t = sh.simple_at(LINE23, 1, 0)
    q = sh.OrdinaryTorsion(LINE23, "q", 1)
    for a, b in ((s, t), (t, s), (s, q), (q, s)):
        assert sh.hom_dim_sheaf(a, b) == 0
        assert sh.ext_dim_sheaf(a, b) == 0


def test_exceptional_objects():
    assert sh.is_exceptional_sheaf(sh.line_bundle(LINE2, (0, 0)))
    assert sh.is_exceptional_sheaf(sh.simple_at(LINE2, 0, 0))
    assert not sh.is_exceptional_sheaf(sh.stack_at(LINE2, 0, 0, 2))
    assert not sh.is_exceptional_sheaf(sh.OrdinaryTorsion(LINE2, "q", 1))
    assert sh.is_exceptional_sheaf(sh.stack_at(LINE23, 1, 0, 2))
    assert not sh.is_exceptional_sheaf(sh.stack_at(LINE23, 1, 0, 3))


def test_exceptional_sequences():
    O = sh.line_bundle(LINE2, (0, 0))
    Ox = sh.line_bundle(LINE2, (1, 0))
    O2c = sh.line_bundle(LINE2, (0, 2))
    assert is_exc_sequence((O, Ox))
    assert not is_exc_sequence((Ox, O))
    assert not is_exc_sequence((O, O2c))
    S1 = sh.simple_at(LINE2, 0, 1)
    assert is_exc_sequence((S1, O))
    assert not is_exc_sequence((O, O))
    assert not is_exc_sequence((S1, O, sh.simple_at(LINE2, 0, 1)))


def test_perp_membership_direction():
    S0 = sh.simple_at(LINE2, 0, 0)
    for k in range(-2, 4):
        Ok = sh.line_bundle(LINE2, (k, 0))
        assert sh.perp_membership(Ok, [S0]) == (k % 2 == 0)


def test_format_round_trip_spot():
    assert sh.format_sheaf(sh.line_bundle(LINE2, (1, 0), -1)) == "O(1,0;-1)"
    assert sh.format_sheaf(sh.simple_at(LINE2, 0, 1)) == "S(inf,1)"
    assert sh.format_sheaf(sh.stack_at(LINE2, 0, 1, 2)) == "S[2](inf,1)"
    assert sh.format_sheaf(sh.OrdinaryTorsion(LINE2, "q", 1)) == "ord(q,1)"


PAIR_QUERIES = [sh.hom_dim_sheaf, sh.ext_dim_sheaf, sh.ext_dim_sheaf_alt]


def test_mixed_lines_rejected():
    """Each pair query tests line identity inline and falls back to
    _same_line, which refuses two unequal lines whatever the kinds; a
    shift by an element of another line is refused for every kind too."""
    pairs = [(sh.line_bundle(LINE2, (0, 0)), sh.line_bundle(LINE11, (0, 0))),
             (sh.simple_at(LINE2, 0, 1), sh.simple_at(LINE23, 0, 1)),
             (sh.OrdinaryTorsion(LINE23, "q", 1), sh.line_bundle(LINE2, (0, 0)))]
    for query, (a, b) in itertools.product(PAIR_QUERIES, pairs):
        with pytest.raises(ValueError, match="sheaves from different lines"):
            query(a, b)
    other = make_line((3, 2)).element((0, 1))
    for s in (sh.line_bundle(LINE23, (0, 0)), sh.simple_at(LINE23, 1, 0),
              sh.OrdinaryTorsion(LINE23, "q", 1)):
        with pytest.raises(ValueError, match="different"):
            sh.shift(s, other)


QUERY_LINES = [make_line(w) for w in ((2,), (2, 3), (3, 3), (4,), (2, 2), (1, 1))]


def test_closed_bundle_hom_matches_section_dimension():
    """The borrow count against dim_S of the difference element, over
    every bundle pair within +-6 canonical steps on the query lines."""
    for line in QUERY_LINES:
        objs = [sh.line_bundle(line, coeffs, c)
                for coeffs in itertools.product(*(range(p) for p in line.weights))
                for c in range(-6, 7)]
        for a, b in itertools.product(objs, repeat=2):
            assert sh.hom_dim_sheaf(a, b) == section_dim(sub(b.degree, a.degree)), (a, b)


def test_line_guards_compare_equal_lines_by_value():
    """Objects over separately built equal lines mix; different lines
    still raise."""
    twin = make_line((2,))
    assert twin is not LINE2
    a, b = sh.line_bundle(LINE2, (0, 0)), sh.line_bundle(twin, (1, 0))
    assert sh.hom_dim_sheaf(a, b) == 1
    # every pair query answers across the two lines as on one line
    objs, twins = kind_grid(LINE2, 1, 1), kind_grid(twin, 1, 1)
    for query, (x, _), (y, y_twin) in itertools.product(PAIR_QUERIES, zip(objs, twins),
                                                        zip(objs, twins)):
        assert query(x, y_twin) == query(x, y), (query, x, y)
    assert sh.LineBundle(LINE2, twin.canonical()) == sh.line_bundle(LINE2, (0, 0), 1)
    assert LINE2.zero() + generator(twin, 0) == generator(twin, 0) + LINE2.zero()
    with pytest.raises(ValueError):
        sh.LineBundle(LINE2, LINE23.zero())
    with pytest.raises(ValueError):
        LINE2.zero() + LINE23.zero()


@pytest.mark.parametrize("obj, field", [
    (LINE2.zero(), "c_part"),
    (Arc(2, 0, 1), "length"),
    (sh.line_bundle(LINE2, (0, 0)), "degree"),
    (sh.simple_at(LINE2, 0, 1), "point"),
    (sh.OrdinaryTorsion(LINE2, "q", 1), "length"),
])
def test_slotted_value_classes_are_frozen(obj, field):
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(obj, field, getattr(obj, field))
    # a name outside the fields is refused too
    with pytest.raises(AttributeError, match="cannot assign to field"):
        obj.extra = 1


def reference_ext(a, b):
    """Ext^1(a, b) as Hom into the built translate, the shift by the
    dualizing element, by Serre duality."""
    return sh.hom_dim_sheaf(b, sh.shift(a, a.line.dualizing()))


def reference_ext_table(a, b):
    """Ext^1(a, b) from its own case table, each case Hom(b, tau a) with
    tau folded in by hand (tau O(x) has c part x.c - 2 plus one carry
    per x_i >= 1; tau of an arc moves its socle back one step)."""
    sh._same_line(a, b)
    if isinstance(a, sh.LineBundle):
        if isinstance(b, sh.LineBundle):
            x, y = a.degree, b.degree
            t = x.c_part - y.c_part - 2 + sum(map(operator.lt, y.coeffs, x.coeffs))
            return t + 1 if t >= 0 else 0
        return 0
    if isinstance(b, sh.LineBundle):
        if isinstance(a, sh.TorsionArc):
            p, length = a.arc.rank, a.arc.length
            r = (b.degree.coeffs[a.point] - a.arc.socle + 1) % p
            return 0 if r >= length else (length - 1 - r) // p + 1
        return a.length
    if isinstance(a, sh.TorsionArc) and isinstance(b, sh.TorsionArc):
        return tube.ext_dim(a.arc, b.arc) if a.point == b.point else 0
    if isinstance(a, sh.OrdinaryTorsion) and isinstance(b, sh.OrdinaryTorsion):
        return min(a.length, b.length) if a.point_id == b.point_id else 0
    return 0


def reference_alt_bundle_ext(a, b):
    """The alternate bundle Ext on two GradeElement operations: dim_S of
    the normal form of a + omega - b."""
    return section_dim(sub(a.degree + a.line.dualizing(), b.degree))


def kind_grid(line, c_span, turns):
    """Bundles within c_span canonical steps, arcs of up to `turns`
    windings at every weighted point, and ordinary stalks at q."""
    objs = [sh.line_bundle(line, coeffs, c)
            for coeffs in itertools.product(*(range(p) for p in line.weights))
            for c in range(-c_span, c_span + 1)]
    for i in line.weighted_indices():
        p = line.weights[i]
        objs += [sh.TorsionArc(line, i, Arc(p, s, l))
                 for s in range(p) for l in range(1, turns * p + 1)]
    return objs + [sh.OrdinaryTorsion(line, "q", l) for l in (1, 2, 3)]


@pytest.mark.parametrize("line", QUERY_LINES + [make_line((3, 4))],
                         ids=lambda line: ",".join(map(str, line.weights)))
def test_closed_ext_matches_tau_path_and_alt(line):
    """The closed Ext equals Hom into the built translate, the replaced
    Ext case table and the independent dim_S/standard-resolution path, on all
    nine kind pairs."""
    objs = kind_grid(line, 1, 2)
    kinds = set()
    for a, b in itertools.product(objs, repeat=2):
        e = sh.ext_dim_sheaf(a, b)
        assert e == reference_ext(a, b) == reference_ext_table(a, b) \
            == sh.ext_dim_sheaf_alt(a, b), (a, b)
        kinds.add((type(a), type(b)))
    assert len(kinds) == (9 if line.weighted_indices() else 4)


@pytest.mark.parametrize("line", QUERY_LINES + [make_line((3, 4))],
                         ids=lambda line: ",".join(map(str, line.weights)))
def test_closed_bundle_to_arc_hom_counts_factors(line):
    """The winding count from O(x) to an arc is the number of its
    composition factors with the index x_i."""
    objs = kind_grid(line, 1, 3)
    arcs = [t for t in objs if isinstance(t, sh.TorsionArc)]
    for o in (x for x in objs if isinstance(x, sh.LineBundle)):
        for t in arcs:
            assert sh.hom_dim_sheaf(o, t) == \
                t.arc.factor_counts()[o.degree.coeffs[t.point]], (o, t)


def test_alt_bundle_ext_builds_no_grade_element(monkeypatch):
    """A bundle pair's alternate Ext reads dim_S off the raw degree
    a + omega - b, with normalize and the GradeElement constructor
    patched to raise, and agrees with the two-GradeElement reference on
    every bundle pair within +-6 canonical steps of the query lines and
    of 3,4."""
    pairs = []
    for line in QUERY_LINES + [make_line((3, 4))]:
        line.dualizing()
        objs = [o for o in kind_grid(line, 6, 0) if isinstance(o, sh.LineBundle)]
        pairs += itertools.product(objs, repeat=2)
    expected = [reference_alt_bundle_ext(a, b) for a, b in pairs]

    def forbidden(*args):
        raise AssertionError("grading element built on the alternate bundle Ext")

    monkeypatch.setattr(grading, "normalize", forbidden)
    monkeypatch.setattr(sh, "normalize", forbidden, raising=False)
    monkeypatch.setattr(grading.GradeElement, "__init__", forbidden)
    assert [sh.ext_dim_sheaf_alt(a, b) for a, b in pairs] == expected


def test_closed_dimensions_build_no_objects(monkeypatch):
    """Hom and Ext on a seeded sample of query pairs neither shift (the
    translate is a shift) nor normalize, and construct no grading
    element, arc or sheaf."""
    rng = random.Random(20231)
    pairs = []
    for line in QUERY_LINES:
        objs = kind_grid(line, 6, 1)
        pairs += [(rng.choice(objs), rng.choice(objs)) for _ in range(400)]
    expected = [(sh.hom_dim_sheaf(a, b), reference_ext(a, b)) for a, b in pairs]

    def forbidden(*args):
        raise AssertionError("object built on the closed Hom/Ext path")

    monkeypatch.setattr(sh, "shift", forbidden)
    monkeypatch.setattr(grading, "normalize", forbidden)
    for cls in (grading.GradeElement, Arc, sh.LineBundle, sh.TorsionArc, sh.OrdinaryTorsion):
        monkeypatch.setattr(cls, "__init__", forbidden)
    assert [(sh.hom_dim_sheaf(a, b), sh.ext_dim_sheaf(a, b)) for a, b in pairs] == expected


def test_query_path_hashes_no_line(monkeypatch):
    """Once each line carries its K0 record, the query stream's classes,
    Euler forms, Hom, both Ext paths, cox_of and nc_leq hash no line.
    The cox queries are prefixes of the canonical sequence, shifted."""
    rng = random.Random(20232)
    pairs, cox = [], []
    for line in QUERY_LINES:
        objs = kind_grid(line, 6, 1)
        pairs += [(line, rng.choice(objs), rng.choice(objs)) for _ in range(200)]
        canonical = kt.canonical_interval_sequence(line)
        for _ in range(20):
            step = line.element([rng.randrange(p) for p in line.weights], rng.randint(-6, 6))
            seq = [sh.shift(s, step) for s in canonical]
            cox.append((line, seq[:rng.randint(1, len(seq) - 1)], seq))

    def answers():
        out = []
        for line, a, b in pairs:
            x, y = kt.class_of(a), kt.class_of(b)
            out.append((x, y, kt.euler_form(line, x, y), sh.hom_dim_sheaf(a, b),
                        sh.ext_dim_sheaf(a, b), sh.ext_dim_sheaf_alt(a, b)))
        for line, short, full in cox:
            u, v = kt.cox_of(line, short), kt.cox_of(line, full)
            out.append((u.matrix, v.matrix, kt.nc_leq(u, v), kt.nc_leq(v, u)))
        return out

    expected = answers()

    def forbidden(self):
        raise AssertionError("a line was hashed on the query path")

    monkeypatch.setattr(grading.WeightData, "__hash__", forbidden)
    assert answers() == expected
