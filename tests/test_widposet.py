"""Window posets of wide subcategories and the shift-invariant side."""

import functools
import itertools

import pytest

from wpline.grading import make_line
from wpline import sheaves as sh
from wpline import tube
from wpline import widposet as wp


LINE2 = make_line((2,))
LINE11 = make_line((1, 1))


def names_of(poset):
    return sorted(n.name for n in poset.nodes)


def fmt_set(snapshot):
    return sorted(sh.format_sheaf(x) for x in snapshot)


def test_default_windows():
    assert wp.default_window(LINE2) == (-2, 3)
    assert wp.default_window(LINE11) == (-2, 3)
    assert wp.default_window(make_line((2, 3))) == (-4, 6)


def test_sheaf_universe_contents():
    u = wp.sheaf_universe(LINE2, -2, 3, ())
    bundles = [x for x in u if isinstance(x, sh.LineBundle)]
    arcs = [x for x in u if isinstance(x, sh.TorsionArc)]
    assert len(bundles) == 6
    assert len(arcs) == 4
    u2 = wp.sheaf_universe(LINE2, -2, 3, ("0", "1"))
    ords = [x for x in u2 if isinstance(x, sh.OrdinaryTorsion)]
    assert len(ords) == 2


def test_poset_rank_two_node_census():
    poset = wp.build_poset(LINE2, -2, 3)
    assert len(poset.nodes) == 20
    assert poset.undecidable == ()
    assert names_of(poset) == [
        "0", "S(inf,0)", "S(inf,1)", "S[2](inf,0)", "S[2](inf,1)",
        "T0", "T0(+1)", "T0(+2)", "T0(+3)", "T0(-1)", "T0(-2)",
        "T1", "T1(+1)", "T1(+2)", "T1(-1)", "T1(-2)",
        "T2", "T2(+1)", "coh", "tor(inf)",
    ]


def test_poset_rank_two_cover_count():
    poset = wp.build_poset(LINE2, -2, 3)
    assert len(poset.covers()) == 45


def test_poset_rank_two_snapshots_frozen():
    poset = wp.build_poset(LINE2, -2, 3)
    assert fmt_set(poset.node("T1").snapshot) == ["O(0,0;0)", "O(1,0;0)", "S(inf,1)"]
    assert fmt_set(poset.node("T0").snapshot) == ["O(0,0;0)"]
    assert fmt_set(poset.node("T0(-2)").snapshot) == ["O(0,0;-1)"]
    assert fmt_set(poset.node("T1(-2)").snapshot) == ["O(0,0;-1)", "O(1,0;-1)", "S(inf,1)"]
    assert fmt_set(poset.node("T2").snapshot) == [
        "O(0,0;-1)", "O(0,0;0)", "O(0,0;1)", "S[2](inf,0)"]
    assert fmt_set(poset.node("tor(inf)").snapshot) == [
        "S(inf,0)", "S(inf,1)", "S[2](inf,0)", "S[2](inf,1)"]
    assert poset.node("0").snapshot == frozenset()
    assert len(poset.node("coh").snapshot) == 10


def test_poset_rank_two_single_clip():
    """One rigid pair inside the window generates a subcategory whose
    bundle support leaks below the window, so it is not a node."""
    poset = wp.build_poset(LINE2, -2, 3)
    assert len(poset.clipped) == 1
    assert sorted(sh.format_sheaf(g) for g in poset.clipped[0]) == ["O(0,0;-1)", "S(inf,0)"]


def test_poset_mixed_representation_nodes():
    poset = wp.build_poset(LINE2, -2, 3)
    both = {n.name for n in poset.nodes
            if n.exc_gens is not None and n.cinv is not None}
    assert both == {"0", "S(inf,0)", "S(inf,1)", "T2", "T2(+1)", "coh"}
    cinv_only = {n.name for n in poset.nodes if n.exc_gens is None}
    assert cinv_only == {"S[2](inf,0)", "S[2](inf,1)", "tor(inf)"}


def test_poset_order_is_snapshot_inclusion():
    poset = wp.build_poset(LINE2, -2, 3)
    t0 = poset.node("T0")
    t1 = poset.node("T1")
    t2 = poset.node("T2")
    assert poset.leq(t0, t1)
    assert poset.leq(t0, t2)
    assert not poset.leq(t1, t2)
    assert not poset.leq(t2, t1)


def test_poset_every_comparable_pair_tagged_or_bridged():
    for poset in (wp.build_poset(LINE2, -2, 3),
                  wp.build_poset(LINE11, -2, 3, universe_ids=("0", "1"))):
        assert poset.certificate_ok()
        for u, v in poset.comparable_pairs():
            if u.exc_gens is not None and v.exc_gens is not None:
                assert poset.tags(u, v), (u.name, v.name)


def test_poset_unweighted_line():
    poset = wp.build_poset(LINE11, -2, 3, universe_ids=("0", "1"))
    assert len(poset.nodes) == 11
    assert poset.undecidable == ()
    singles = [n for n in poset.nodes if n.name.startswith("<O")]
    assert len(singles) == 6
    for u, v in itertools.combinations(singles, 2):
        assert not poset.leq(u, v) and not poset.leq(v, u)
    assert names_of(poset) == [
        "0", "<O(+1)>", "<O(+2)>", "<O(+3)>", "<O(-1)>", "<O(-2)>", "<O(0)>",
        "coh", "tor(0)", "tor(0,1)", "tor(1)",
    ]


def test_poset_unweighted_line_covers():
    poset = wp.build_poset(LINE11, -2, 3, universe_ids=("0", "1"))
    covers = set(poset.covers())
    assert len(covers) == 17
    assert ("tor(0)", "tor(0,1)") in covers
    assert ("tor(0,1)", "coh") in covers
    assert ("0", "<O(0)>") in covers
    assert ("<O(0)>", "coh") in covers


def test_dot_output_shape():
    poset = wp.build_poset(LINE2, -2, 3)
    dot = wp.poset_dot(poset)
    assert dot.startswith("digraph wid {")
    assert dot.rstrip().endswith("}")
    assert dot.count("->") == 45
    assert '"T0" -> "T1"' in dot


def test_json_output_shape():
    poset = wp.build_poset(LINE2, -2, 3)
    doc = wp.poset_json(poset)
    assert doc["schema"] == 1
    assert len(doc["nodes"]) == 20
    assert len(doc["covers"]) == 45
    assert doc["undecidable"] == []


def test_enumerate_wid_c_counts():
    data = list(wp.enumerate_wid_c(LINE2, ("0", "1")))
    torsion_only = [d for d in data if not d.contains_bundle]
    with_bundle = [d for d in data if d.contains_bundle]
    assert len(torsion_only) == 24
    assert len(with_bundle) == 3


def test_enumerate_wid_c_no_ordinary_points():
    data = list(wp.enumerate_wid_c(LINE2, ()))
    # per point: 6 tube-wide choices on the weighted point, 1 on the
    # trivial one; bundle side contributes the three exceptional-perp
    # images
    assert len([d for d in data if not d.contains_bundle]) == 6
    assert len([d for d in data if d.contains_bundle]) == 3


def test_cinv_round_trip_through_tube_perp():
    ids = ("0", "1")
    for d in wp.enumerate_wid_c(LINE2, ids):
        if not d.contains_bundle:
            continue
        back = tuple(tube.perp_pair(fp) for fp in d.per_point)
        assert back == d.defining_exc
        assert wp.c_inv_from_torsion_exc(LINE2, back, ids) == d


def test_exc_snapshot_double_perp_identity():
    uni = wp.window_universe(LINE2, -6, 7, ())
    O = sh.line_bundle(LINE2, (0, -1))
    snap = wp.exc_snapshot((O,), uni)
    assert uni.members(snap) == (O,)


@pytest.mark.parametrize("weights, lo, hi", [((2,), -2, 3), ((2, 3), -6, 6), ((4,), -8, 8)])
def test_exc_snapshot_is_pointwise_double_perp(weights, lo, hi):
    """On every rigid set of at most two exceptional window objects, the
    bitset closure equals the double perpendicular written out from the
    sheaf Hom and Ext, inside the one- and two-margin windows."""
    line = make_line(weights)
    p = line.p
    uni = wp.window_universe(line, lo - 2 * p, hi + 2 * p, ())
    big = wp.sheaf_universe(line, lo - p, hi + p, ())
    window = wp.sheaf_universe(line, lo, hi, ())

    @functools.cache
    def orthogonal(a, b):
        return sh.hom_dim_sheaf(a, b) == 0 and sh.ext_dim_sheaf(a, b) == 0

    def double_perp(gens, inside):
        perp = [u for u in inside if all(orthogonal(g, u) for g in gens)]
        return tuple(x for x in inside if all(orthogonal(x, q) for q in perp))

    exceptional = [u for u in window if sh.is_exceptional_sheaf(u)]
    checked = 0
    for r in (1, 2):
        for gens in itertools.combinations(exceptional, r):
            if any(sh.ext_dim_sheaf(a, b) for a in gens for b in gens):
                continue
            checked += 1
            assert uni.members(wp.exc_snapshot(gens, uni, uni.mask(big))) \
                == double_perp(gens, big), gens
            assert uni.members(wp.exc_snapshot(gens, uni)) == double_perp(gens, uni.objects), gens
    assert checked > len(exceptional)


def test_order_exc_sheaves_gives_sequence():
    O = sh.line_bundle(LINE2, (0, 0))
    Ox = sh.line_bundle(LINE2, (1, 0))
    S1 = sh.simple_at(LINE2, 0, 1)
    for gens in [(Ox, O), (S1, O), (O, S1), (O, Ox)]:
        seq = tube.order_exc_sequence(gens, sh.hom_dim_sheaf, sh.ext_dim_sheaf,
                                      sh.sheaf_sort_key)
        assert set(seq) == set(gens)
        assert tube.is_exc_sequence(seq, sh.hom_dim_sheaf, sh.ext_dim_sheaf)


def test_decompose_simple_perpendicular():
    S0 = sh.simple_at(LINE2, 0, 0)
    out = wp.exc_torsion_perp_decompose(LINE2, S0)
    assert out["reduced_weights"] == (1, 1)
    assert out["cross_orthogonal"] is True
    assert out["perp_covered"] is True
    assert out["block_tube"] == []
    assert sorted(sh.format_sheaf(x) for x in out["block_sheaf_members"]) == [
        "O(0,0;-1)", "O(0,0;-2)", "O(0,0;0)", "O(0,0;1)", "O(0,0;2)",
        "S[2](inf,0)"]


def test_decompose_stack_perpendicular():
    line = make_line((3,))
    e = sh.stack_at(line, 0, 1, 2)
    out = wp.exc_torsion_perp_decompose(line, e)
    assert out["reduced_weights"] == (1, 1)
    assert out["cross_orthogonal"] is True
    assert out["perp_covered"] is True
    assert [sh.format_sheaf(x) for x in out["block_tube"]] == ["S(inf,0)"]


def test_poset_rejects_three_weighted_points():
    with pytest.raises(ValueError):
        wp.build_poset(make_line((2, 3, 5)), -2, 3)
