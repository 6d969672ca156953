"""Indecomposable sheaves: hom and ext dimensions, shifts, sequences."""

import itertools

import pytest

from wpline.grading import dim_S, make_line
from wpline import sheaves as sh
from wpline import tube


LINE2 = make_line((2,))
LINE11 = make_line((1, 1))
LINE23 = make_line((2, 3))


def is_exc_sequence(seq):
    return tube.is_exc_sequence(seq, sh.hom_dim_sheaf, sh.ext_dim_sheaf)


def bundles(line, lo, hi):
    g = line.generator(line.weighted_indices()[0]) if line.weighted_indices() \
        else line.canonical()
    return [sh.line_bundle(line, g.scale(k)) for k in range(lo, hi + 1)]


def test_line_bundle_accepts_coeffs_and_elements():
    a = sh.line_bundle(LINE2, (1, 0))
    b = sh.line_bundle(LINE2, LINE2.generator(0))
    assert a == b


def test_bundle_hom_is_section_dimension():
    for k, l in itertools.product(range(-2, 3), repeat=2):
        a = sh.line_bundle(LINE2, (k, 0))
        b = sh.line_bundle(LINE2, (l, 0))
        d = LINE2.generator(0).scale(l - k)
        assert sh.hom_dim_sheaf(a, b) == dim_S(d)


def test_bundle_ext_by_duality():
    omega = LINE2.dualizing()
    for k, l in itertools.product(range(-2, 3), repeat=2):
        a = sh.line_bundle(LINE2, (k, 0))
        b = sh.line_bundle(LINE2, (l, 0))
        d = LINE2.generator(0).scale(k - l) + omega
        assert sh.ext_dim_sheaf(a, b) == dim_S(d)


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
        t = sh.ordinary_simple(line, ids[0])
        assert sh.hom_dim_sheaf(O, t) == 1
        assert sh.hom_dim_sheaf(t, O) == 0
        assert sh.ext_dim_sheaf(O, t) == 0
        assert sh.ext_dim_sheaf(t, O) == 1
        assert sh.hom_dim_sheaf(t, t) == 1
        assert sh.ext_dim_sheaf(t, t) == 1


def test_shift_compose_and_identity():
    z = LINE2.zero()
    c = LINE2.canonical()
    x = LINE2.generator(0)
    objs = [sh.line_bundle(LINE2, (1, 0), -1),
            sh.simple_at(LINE2, 0, 1),
            sh.stack_at(LINE2, 0, 0, 2),
            sh.ordinary_simple(LINE2, "q")]
    for s in objs:
        assert sh.shift(s, z) == s
        assert sh.shift(sh.shift(s, x), c) == sh.shift(s, x + c)


def test_shift_rotates_torsion_socle():
    S0 = sh.simple_at(LINE2, 0, 0)
    x = LINE2.generator(0)
    assert sh.shift(S0, x) == sh.simple_at(LINE2, 0, 1)
    # the canonical class fixes every torsion sheaf
    assert sh.shift(S0, LINE2.canonical()) == S0
    t = sh.ordinary_simple(LINE2, "q")
    assert sh.shift(t, x) == t


def test_shift_invariance_of_dimensions():
    pairs = [(sh.line_bundle(LINE2, (0, 0)), sh.simple_at(LINE2, 0, 0)),
             (sh.line_bundle(LINE2, (1, 0)), sh.line_bundle(LINE2, (0, 1))),
             (sh.stack_at(LINE2, 0, 0, 2), sh.simple_at(LINE2, 0, 1))]
    for l in (LINE2.generator(0), LINE2.canonical(), LINE2.dualizing()):
        for a, b in pairs:
            assert sh.hom_dim_sheaf(a, b) == sh.hom_dim_sheaf(sh.shift(a, l), sh.shift(b, l))
            assert sh.ext_dim_sheaf(a, b) == sh.ext_dim_sheaf(sh.shift(a, l), sh.shift(b, l))


def test_ext_paths_agree_on_sample():
    objs = bundles(LINE23, -2, 2) + [
        sh.simple_at(LINE23, 0, 0), sh.simple_at(LINE23, 0, 1),
        sh.simple_at(LINE23, 1, 2), sh.stack_at(LINE23, 1, 1, 2),
        sh.ordinary_simple(LINE23, "q")]
    for a, b in itertools.product(objs, repeat=2):
        assert sh.ext_dim_sheaf(a, b) == sh.ext_dim_sheaf_alt(a, b), (a, b)


def test_torsion_dimensions_cross_points_vanish():
    s = sh.simple_at(LINE23, 0, 0)
    t = sh.simple_at(LINE23, 1, 0)
    q = sh.ordinary_simple(LINE23, "q")
    for a, b in ((s, t), (t, s), (s, q), (q, s)):
        assert sh.hom_dim_sheaf(a, b) == 0
        assert sh.ext_dim_sheaf(a, b) == 0


def test_exceptional_objects():
    assert sh.is_exceptional_sheaf(sh.line_bundle(LINE2, (0, 0)))
    assert sh.is_exceptional_sheaf(sh.simple_at(LINE2, 0, 0))
    assert not sh.is_exceptional_sheaf(sh.stack_at(LINE2, 0, 0, 2))
    assert not sh.is_exceptional_sheaf(sh.ordinary_simple(LINE2, "q"))
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


def test_perp_membership_direction():
    S0 = sh.simple_at(LINE2, 0, 0)
    for k in range(-2, 4):
        Ok = sh.line_bundle(LINE2, (k, 0))
        assert sh.perp_membership(Ok, [S0]) == (k % 2 == 0)


def test_format_round_trip_spot():
    assert sh.format_sheaf(sh.line_bundle(LINE2, (1, 0), -1)) == "O(1,0;-1)"
    assert sh.format_sheaf(sh.simple_at(LINE2, 0, 1)) == "S(inf,1)"
    assert sh.format_sheaf(sh.stack_at(LINE2, 0, 1, 2)) == "S[2](inf,1)"
    assert sh.format_sheaf(sh.ordinary_simple(LINE2, "q")) == "ord(q,1)"


def test_mixed_lines_rejected():
    with pytest.raises(ValueError):
        sh.hom_dim_sheaf(sh.line_bundle(LINE2, (0, 0)), sh.line_bundle(LINE11, (0, 0)))
