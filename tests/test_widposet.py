"""Window posets of wide subcategories and the shift-invariant side."""

import functools
import hashlib
import itertools
from pathlib import Path

import pytest

from wpline.grading import make_line
from wpline.ktheory import k_rank
from wpline.nilpotent import Arc
from wpline import linalg
from wpline import sheaves as sh
from wpline import tube
from wpline import widposet as wp
from test_linalg import rank


LINE2 = make_line((2,))
LINE11 = make_line((1, 1))
GOLDEN = Path(__file__).parent / "golden"
# weights, lo, hi of the five benchmark poset inputs at shift 0
BENCH_INPUTS = [((2,), -2, 3), ((2, 2), -2, 3), ((2, 3), -6, 6), ((4,), -8, 8), ((3, 3), -2, 3)]
# the benchmark inputs and two lines with declared ordinary points
UNIVERSE_INPUTS = ([(*inp, ()) for inp in BENCH_INPUTS]
                   + [((2, 2), -4, 4, ("q",)), ((1, 1), -2, 3, ("0", "1"))])


def names_of(poset):
    return sorted(n.name for n in poset.nodes)


def fmt_set(snapshot):
    return sorted(sh.format_sheaf(x) for x in snapshot)


@functools.cache
def snapshot(poset, mask):
    """The sheaves of a mask over the poset's universe, as a set; the
    pairwise references ask for each one many times."""
    return frozenset(poset.uni.members(mask))


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

    def members(name):
        return fmt_set(snapshot(poset, node(poset, name).mask))

    assert members("T1") == ["O(0,0;0)", "O(1,0;0)", "S(inf,1)"]
    assert members("T0") == ["O(0,0;0)"]
    assert members("T0(-2)") == ["O(0,0;-1)"]
    assert members("T1(-2)") == ["O(0,0;-1)", "O(1,0;-1)", "S(inf,1)"]
    assert members("T2") == ["O(0,0;-1)", "O(0,0;0)", "O(0,0;1)", "S[2](inf,0)"]
    assert members("tor(inf)") == ["S(inf,0)", "S(inf,1)", "S[2](inf,0)", "S[2](inf,1)"]
    assert snapshot(poset, node(poset, "0").mask) == frozenset()
    assert len(snapshot(poset, node(poset, "coh").mask)) == 10


def test_poset_rank_two_single_clip():
    """One rigid pair inside the window generates a subcategory whose
    bundle support leaks below the window, so it is not a node."""
    poset = wp.build_poset(LINE2, -2, 3)
    assert len(poset.clipped) == 1
    assert fmt_set(poset.uni.members(poset.clipped[0])) == ["O(0,0;-1)", "S(inf,0)"]


def test_poset_mixed_representation_nodes():
    poset = wp.build_poset(LINE2, -2, 3)
    both = {n.name for n in poset.nodes
            if n.exc_gens is not None and n.cinv is not None}
    assert both == {"0", "S(inf,0)", "S(inf,1)", "T2", "T2(+1)", "coh"}
    cinv_only = {n.name for n in poset.nodes if n.exc_gens is None}
    assert cinv_only == {"S[2](inf,0)", "S[2](inf,1)", "tor(inf)"}


@functools.cache
def node_index(poset):
    """Node indices by name; the poset itself keeps no name lookup."""
    return {n.name: i for i, n in enumerate(poset.nodes)}


def node(poset, name):
    return poset.nodes[node_index(poset)[name]]


def leq(poset, u, v):
    """u <= v in the built order: the same node, or v strictly above u."""
    i, j = node_index(poset)[u.name], node_index(poset)[v.name]
    return u is v or bool(poset.above[i] >> j & 1)


def tags(poset, u, v):
    """Certifying mechanisms for u <= v, read off the exc and cinv rows."""
    i, j = node_index(poset)[u.name], node_index(poset)[v.name]
    return tuple(m for m, row in (("exc", poset.exc), ("cinv", poset.cinv)) if row[i] >> j & 1)


def comparable_pairs(poset):
    """(u, v) with v strictly above u, by rows in node order."""
    for i, u in enumerate(poset.nodes):
        for j in tube.bits(poset.above[i]):
            yield u, poset.nodes[j]


def test_poset_order_is_snapshot_inclusion():
    poset = wp.build_poset(LINE2, -2, 3)
    t0 = node(poset, "T0")
    t1 = node(poset, "T1")
    t2 = node(poset, "T2")
    assert leq(poset, t0, t1)
    assert leq(poset, t0, t2)
    assert not leq(poset, t1, t2)
    assert not leq(poset, t2, t1)


def test_poset_every_comparable_pair_tagged_or_bridged():
    for poset in (wp.build_poset(LINE2, -2, 3),
                  wp.build_poset(LINE11, -2, 3, universe_ids=("0", "1"))):
        assert poset.certificate_ok()
        for u, v in comparable_pairs(poset):
            if u.exc_gens is not None and v.exc_gens is not None:
                assert tags(poset, u, v), (u.name, v.name)


def test_poset_unweighted_line():
    poset = wp.build_poset(LINE11, -2, 3, universe_ids=("0", "1"))
    assert len(poset.nodes) == 11
    assert poset.undecidable == ()
    singles = [n for n in poset.nodes if n.name.startswith("<O")]
    assert len(singles) == 6
    for u, v in itertools.combinations(singles, 2):
        assert not leq(poset, u, v) and not leq(poset, v, u)
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
        back = tuple(tube.perp_pair(2, m) for m in d.per_point)
        assert back == d.defining_exc
        assert wp.c_inv_from_torsion_exc(LINE2, back, ids) == d


def margin_universe(weights, lo, hi, ids=()):
    """The universe build_poset computes in: the window enlarged by
    universe_margin degrees on each side."""
    line = make_line(weights)
    m = wp.universe_margin(line)
    return wp.window_universe(line, lo - m, hi + m, ids)


def rigid_window_sets(weights, lo, hi):
    """The poset universe, and the rigid sets of exceptional window
    objects with their right perpendiculars, as build_poset walks them."""
    line = make_line(weights)
    uni = margin_universe(weights, lo, hi)
    window = uni.mask(wp.sheaf_universe(line, lo, hi, ()))
    exceptional = sum(1 << i for i in tube.bits(window) if sh.is_exceptional_sheaf(uni.objects[i]))
    return uni, uni.rigid_subsets(exceptional, k_rank(line))


def exc_snapshot(gens, uni, within=None):
    """Members of the closure of a rigid set inside `within` (default:
    the whole universe), as a mask: the double perpendicular of the
    generators, both perpendiculars taken inside `within`."""
    if within is None:
        within = uni.full
    return uni.left_perp(uni.right_perp(uni.mask(gens)) & within) & within


def test_exc_snapshot_double_perp_identity():
    uni = wp.window_universe(LINE2, -6, 7, ())
    O = sh.line_bundle(LINE2, (0, -1))
    snap = exc_snapshot((O,), uni)
    assert uni.members(snap) == (O,)


@pytest.mark.parametrize("weights, lo, hi", [((2,), -2, 3), ((2, 3), -6, 6), ((4,), -8, 8)])
def test_exc_snapshot_is_pointwise_double_perp(weights, lo, hi):
    """On every rigid set of at most two exceptional window objects, the
    bitset closure equals the double perpendicular written out from the
    sheaf Hom and Ext, inside the window and inside the poset universe."""
    uni = margin_universe(weights, lo, hi)
    window = wp.sheaf_universe(make_line(weights), lo, hi, ())

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
            assert uni.members(exc_snapshot(gens, uni, uni.mask(window))) \
                == double_perp(gens, window), gens
            assert uni.members(exc_snapshot(gens, uni)) == double_perp(gens, uni.objects), gens
    assert checked > len(exceptional)


@pytest.mark.parametrize("weights, lo, hi", [
    ((2,), -2, 3), ((2, 2), -2, 3), ((2, 3), -6, 6), ((4,), -8, 8),
    ((2, 2), -1, 0), ((2, 3), 0, 1)])
def test_closures_exact_on_poset_universe(weights, lo, hi):
    """The closure of every rigid set of exceptional window objects, taken
    over the poset universe, is the closure over the window enlarged by
    three canonical degrees on each side, restricted to the poset
    universe: the margin is wide enough that no member appears or
    disappears further out."""
    line = make_line(weights)
    uni, rigid = rigid_window_sets(weights, lo, hi)
    wide = wp.window_universe(line, lo - 3 * line.p, hi + 3 * line.p, ())
    assert wp.universe_margin(line) < 3 * line.p
    inside = wide.mask(uni.objects)
    seen = {}
    for gens, perp in rigid:
        if perp not in seen:
            seen[perp] = uni.left_perp(perp)
            far = wide.double_perp(wide.mask(uni.members(gens))) & inside
            assert uni.members(seen[perp]) == wide.members(far), uni.members(gens)
    assert len(seen) > 1


@pytest.mark.parametrize("weights, lo, hi", [((2,), 0, 0), ((4,), -4, -2), ((2, 3), 0, 1)])
def test_narrow_window_cannot_separate_invariant_nodes(weights, lo, hi):
    """A window narrower than delta(c) can miss every bundle of an invariant
    subcategory, whose window slice is then that of another one: each such
    pair is reported, never merged into one node."""
    line = make_line(weights)
    uni = margin_universe(weights, lo, hi)
    window = uni.mask(wp.sheaf_universe(line, lo, hi, ()))
    offset = wp.torsion_offsets(uni)
    datas = wp.enumerate_wid_c(line, ())
    shared = len(datas) - len({wp.cinv_snapshot(line, d, uni, offset) & window for d in datas})
    poset = wp.build_poset(line, lo, hi)
    assert shared > 0
    assert [m.startswith("window cannot separate ") for m in poset.undecidable] == [True] * shared


def test_universe_margin_values():
    """max(p, 2p + delta(omega)) on the five lines of the benchmark."""
    assert [wp.universe_margin(make_line(w)) for w, _, _ in BENCH_INPUTS] == [2, 2, 7, 4, 4]


def test_order_exc_sheaves_gives_sequence():
    O = sh.line_bundle(LINE2, (0, 0))
    Ox = sh.line_bundle(LINE2, (1, 0))
    S1 = sh.simple_at(LINE2, 0, 1)
    for gens in [(Ox, O), (S1, O), (O, S1), (O, Ox)]:
        seq = tube.order_exc_sequence(gens, sh.hom_dim_sheaf, sh.ext_dim_sheaf,
                                      sh.sheaf_sort_key)
        assert set(seq) == set(gens)
        assert tube.is_exc_sequence(seq, sh.hom_dim_sheaf, sh.ext_dim_sheaf)


def window_perp(line, e):
    """The members of e^perp among the objects of the window -2p..2p, as
    the perp verb lists them."""
    return [x for x in wp.sheaf_universe(line, -2 * line.p, 2 * line.p, ())
            if sh.perp_membership(x, (e,))]


def test_decompose_simple_perpendicular():
    S0 = sh.simple_at(LINE2, 0, 0)
    out = wp.exc_torsion_perp_decompose(LINE2, S0, window_perp(LINE2, S0))
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
    out = wp.exc_torsion_perp_decompose(line, e, window_perp(line, e))
    assert out["reduced_weights"] == (1, 1)
    assert out["cross_orthogonal"] is True
    assert out["perp_covered"] is True
    assert [sh.format_sheaf(x) for x in out["block_tube"]] == ["S(inf,0)"]


def reference_tube_block(e):
    """The tube block of an exceptional arc's perpendicular from the
    top-down ladder S, tau S, ..., tau^{m-1} S of its simples, S the top
    one: the closure of all but S."""
    n = e.rank
    uni = tube.tube_universe(n)
    ladder = [Arc(n, (e.top - k) % n, 1) for k in range(e.length)]
    return uni.double_perp(uni.mask(ladder[1:]))


@pytest.mark.parametrize("n", range(2, 7))
def test_tube_block_matches_top_down_ladder(n):
    """At weight n, the tube block of every exceptional torsion sheaf is
    the closure that the top-down ladder gives."""
    line = make_line((n,))
    uni = tube.tube_universe(n)
    exceptional = [a for a in uni.objects if tube.is_exceptional(a)]
    assert len(exceptional) == n * (n - 1)
    for arc in exceptional:
        out = wp.exc_torsion_perp_decompose(line, sh.TorsionArc(line, 0, arc), [])
        assert [x.arc for x in out["block_tube"]] == list(uni.members(reference_tube_block(arc)))


def test_decompose_rejects_full_arc():
    e = sh.TorsionArc(LINE2, 0, Arc(2, 0, 2))
    with pytest.raises(ValueError, match="not exceptional"):
        wp.exc_torsion_perp_decompose(LINE2, e, [])


def test_poset_rejects_three_weighted_points():
    with pytest.raises(ValueError):
        wp.build_poset(make_line((2, 3, 5)), -2, 3)


# ---------------------------------------------------------------------------
# pairwise reference for the bitset order

def point_arcs(line, masks):
    """The member arcs of one tube lattice mask per weighted point."""
    return [frozenset(tube.tube_universe(line.weights[i]).members(m))
            for m, i in zip(masks, line.weighted_indices())]


def ref_cinv_leq(line, a, b):
    """Inclusion of shift-invariant subcategories, read off their data."""
    return all(fa <= fb for fa, fb in zip(point_arcs(line, a.per_point),
                                          point_arcs(line, b.per_point))) \
        and a.ordinary_support <= b.ordinary_support \
        and (not a.contains_bundle or b.contains_bundle)


def ref_mechanisms(poset, u, v):
    """Verdict on u <= v of each mechanism that applies: the generators of
    an exceptional u against any v, the data of two invariant nodes."""
    out = {}
    if u.exc_gens is not None:
        out["exc"] = snapshot(poset, u.exc_gens) <= snapshot(poset, v.mask)
    if u.cinv is not None and v.cinv is not None:
        out["cinv"] = ref_cinv_leq(poset.line, u.cinv, v.cinv)
    return out


def ref_tags(poset, u, v):
    """The tags of u <= v: each mechanism that certifies it, except the
    generators of u against an invariant-only v whose data certify it."""
    verdicts = ref_mechanisms(poset, u, v)
    if v.exc_gens is None and verdicts.get("cinv"):
        verdicts.pop("exc", None)
    return tuple(m for m, ok in verdicts.items() if ok)


def ref_order_messages(poset, dropped=frozenset()):
    """The order check, pair by pair; `dropped` holds index pairs taken
    out of the snapshot order."""
    out = []
    for i, u in enumerate(poset.nodes):
        for j, v in enumerate(poset.nodes):
            if i == j:
                continue
            small = snapshot(poset, u.mask) <= snapshot(poset, v.mask) and (i, j) not in dropped
            verdicts = ref_mechanisms(poset, u, v)
            for mechanism, truth in verdicts.items():
                if small != truth:
                    source = "generators" if mechanism == "exc" else "invariant data"
                    out.append(f"order of {u.name} and {v.name} disagrees with {source}")
            if small and not verdicts:
                out.append(f"order of {u.name} and {v.name} undecidable at window scale")
    return out


def ref_certificate_ok(poset):
    """Every comparable pair is reachable from its lower end through
    comparable pairs that carry a tag (depth-first search per node)."""
    def below(u, v):
        return u is not v and snapshot(poset, u.mask) <= snapshot(poset, v.mask)

    steps = {u.name: [v.name for v in poset.nodes
                      if below(u, v) and any(ref_mechanisms(poset, u, v).values())]
             for u in poset.nodes}
    for u in poset.nodes:
        seen, todo = set(), [u.name]
        while todo:
            for b in steps[todo.pop()]:
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        if any(below(u, v) and v.name not in seen for v in poset.nodes):
            return False
    return True


@pytest.mark.parametrize("weights, lo, hi, ids", [
    ((2,), -2, 3, ()), ((2, 2), -2, 3, ()), ((4,), -8, 8, ()),
    ((1, 1), -2, 3, ("0", "1")), ((4,), -4, 2, ())])
def test_order_rows_match_pairwise_reference(weights, lo, hi, ids):
    """The bitset rows give the pairwise definitions: snapshot inclusion,
    generators inside the larger snapshot, and inclusion of invariant
    data, also as the JSON tags.  On 4 @ -4..2 the generators are the
    only certificate of some pairs of a finite and an invariant node."""
    poset = wp.build_poset(make_line(weights), lo, hi, ids)
    nodes = poset.nodes
    for u in nodes:
        for v in nodes:
            small = snapshot(poset, u.mask) <= snapshot(poset, v.mask)
            assert leq(poset, u, v) == small, (u.name, v.name)
            assert tags(poset, u, v) == ref_tags(poset, u, v), (u.name, v.name)
    assert [(u.name, v.name) for u, v in comparable_pairs(poset)] == \
        [(u.name, v.name) for u in nodes for v in nodes
         if u is not v and snapshot(poset, u.mask) <= snapshot(poset, v.mask)]
    assert wp.poset_json(poset)["ord_tags"] == \
        {f"{u.name}<{v.name}": list(tags(poset, u, v))
         for u, v in comparable_pairs(poset) if tags(poset, u, v)}
    order = ref_order_messages(poset)
    rest = [m for m in poset.undecidable if not m.startswith("order of ")]
    assert list(poset.undecidable) == rest + order
    assert poset.certificate_ok() == ref_certificate_ok(poset)
    assert order == []
    assert poset.undecidable == ()
    mixed = [(u, v) for u, v in comparable_pairs(poset) if u.cinv is None and v.exc_gens is None]
    assert bool(mixed) == ((weights, lo, hi) == ((4,), -4, 2))


@pytest.mark.parametrize("weights, lo, hi", [((2,), -2, 3), ((4,), -4, 2), ((2, 3), -4, 6)])
def test_exceptional_below_invariant_matches_defining_data(weights, lo, hi):
    """An exceptional node u lies below a bundle-containing invariant node
    v = T^perp exactly when Hom and Ext vanish from every arc of T to
    every generator of u: the paper's first theorem, read off closed-form
    sheaf Hom and Ext with no window or snapshot."""
    line = make_line(weights)
    poset = wp.build_poset(line, lo, hi)

    @functools.cache
    def orthogonal(t, g):
        return sh.hom_dim_sheaf(t, g) == 0 and sh.ext_dim_sheaf(t, g) == 0

    checked = 0
    for v in poset.nodes:
        if v.cinv is None or not v.cinv.contains_bundle:
            continue
        arcs = [sh.TorsionArc(line, i, a)
                for point, i in zip(point_arcs(line, v.cinv.defining_exc), line.weighted_indices())
                for a in point]
        for u in poset.nodes:
            if u.exc_gens is not None and u is not v:
                checked += 1
                gens = poset.uni.members(u.exc_gens)
                assert leq(poset, u, v) == all(orthogonal(t, g) for t in arcs for g in gens), \
                    (u.name, v.name)
    assert checked > len(poset.nodes)


def thin_inclusion_order(monkeypatch):
    """Take the lowest pair of every row out of the snapshot order; the
    returned set collects the index pairs taken out."""
    real = tube.inclusion_order
    dropped = set()

    def thinned(masks, held):
        above, covers = real(masks, held)
        dropped.update((i, (up & -up).bit_length() - 1) for i, up in enumerate(above) if up)
        return [up & (up - 1) for up in above], covers

    monkeypatch.setattr(tube, "inclusion_order", thinned)
    return dropped


def test_order_disagreements_follow_pairwise_reference(monkeypatch):
    """With the lowest pair of every row taken out of the snapshot order,
    both mechanisms disagree somewhere, and the messages come out as the
    pairwise loop writes them."""
    dropped = thin_inclusion_order(monkeypatch)
    poset = wp.build_poset(LINE2, -2, 3)
    expected = ref_order_messages(poset, dropped)
    assert list(poset.undecidable) == expected
    for source in ("generators", "invariant data"):
        assert any(m.endswith(f"disagrees with {source}") for m in expected), source


@pytest.mark.parametrize("weights, lo, hi, ids", UNIVERSE_INPUTS)
def test_node_holders_built_once(weights, lo, hi, ids, monkeypatch):
    """The order and the generator certificate share one holders table
    of the node masks."""
    real, seen = tube.holders, []

    def counted(masks):
        masks = list(masks)
        seen.append(masks)
        return real(masks)

    monkeypatch.setattr(tube, "holders", counted)
    poset = wp.build_poset(make_line(weights), lo, hi, ids)
    assert seen.count([n.mask for n in poset.nodes]) == 1


# ---------------------------------------------------------------------------
# the index-native build: universe tables, rigid subsets, index order

def pairwise_tables(objects, hom, ext):
    """The universe tables filled pair by pair from the layer's Hom and
    Ext: right, left and compatible rows."""
    idx = range(len(objects))
    no_hom = [[hom(x, y) == 0 for y in objects] for x in objects]
    no_ext = [[ext(x, y) == 0 for y in objects] for x in objects]

    def row(test):
        return [sum(1 << j for j in idx if test(i, j)) for i in idx]

    return (row(lambda i, j: no_hom[i][j] and no_ext[i][j]),
            row(lambda i, j: no_hom[j][i] and no_ext[j][i]),
            row(lambda i, j: no_ext[i][j] and no_ext[j][i]))




@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tau_fill_matches_pairwise_tube(n):
    uni = tube.tube_universe(n)
    assert (uni.right, uni.left, uni.compatible) == \
        pairwise_tables(uni.objects, tube.hom_dim, tube.ext_dim)


@pytest.mark.parametrize("weights, lo, hi, ids",
                         [(*inp, ()) for inp in BENCH_INPUTS] + [((1, 1), -2, 3, ("0", "1"))])
def test_tau_fill_matches_pairwise_sheaves(weights, lo, hi, ids):
    """Both ways of filling an Ext row run: the Hom column of a tau x
    inside the universe, and one Hom row into a tau x outside it."""
    uni = margin_universe(weights, lo, hi, ids)
    inside = {sh.tau_sheaf(x) in uni.index for x in uni.objects}
    assert inside == {True, False}
    assert (uni.right, uni.left, uni.compatible) == \
        pairwise_tables(uni.objects, sh.hom_dim_sheaf, sh.ext_dim_sheaf)


@pytest.mark.parametrize("layer", ["tube-1", "tube-2", "tube-3", "tube-4", "sheaf-2", "sheaf-2,2"])
def test_rigid_subsets_carry_right_perpendicular(layer):
    """Masks are the rigid sets of at most max_size objects in level
    order, which is the order of the exhaustive list by size and then by
    combination, and each carried perpendicular is the right
    perpendicular of its mask."""
    kind, arg = layer.split("-")
    if kind == "tube":
        n = int(arg)
        uni, max_size, ext = tube.tube_universe(n), n - 1, tube.ext_dim
    else:
        line = make_line(tuple(int(w) for w in arg.split(",")))
        uni, max_size = wp.window_universe(line, -2, 3, ()), k_rank(line)
        ext = functools.cache(sh.ext_dim_sheaf)
    found = list(uni.rigid_subsets(uni.full, max_size))
    assert [uni.members(m) for m, _ in found] == \
        [c for r in range(max_size + 1) for c in itertools.combinations(uni.objects, r)
         if tube.is_rigid_set(c, ext)]
    for mask, perp in found:
        assert perp == uni.right_perp(mask), uni.members(mask)


@pytest.mark.parametrize("weights, lo, hi", BENCH_INPUTS)
@pytest.mark.parametrize("ids", [(), ("a", "b")])
def test_sheaf_universe_strictly_sorted(weights, lo, hi, ids):
    """build_poset compares sets by object index, which agrees with
    sheaf_sort_key only while the universe is strictly increasing in it."""
    line = make_line(weights)
    for k in (0, 1, 2):
        keys = [sh.sheaf_sort_key(x)
                for x in wp.sheaf_universe(line, lo - k * line.p, hi + k * line.p, ids)]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_poset_dot_digests():
    """The DOT output of the five benchmark inputs, byte for byte."""
    lines = (GOLDEN / "poset_dot_sha256.txt").read_text().splitlines()
    assert len(lines) == len(BENCH_INPUTS)
    for line in lines:
        weights, lo, hi, digest = line.split()
        poset = wp.build_poset(make_line(tuple(int(w) for w in weights.split(","))),
                               int(lo), int(hi))
        assert hashlib.sha256(wp.poset_dot(poset).encode()).hexdigest() == digest, weights


@pytest.mark.parametrize("weights, lo, hi", BENCH_INPUTS)
def test_node_sheaf_sets_built_on_first_access(weights, lo, hi):
    """A node holds masks only, so its sheaf sets are built when a reader
    asks the poset's universe for them: the members of a mask come out in
    sheaf_sort_key order, as the emitters print them."""
    poset = wp.build_poset(make_line(weights), lo, hi)
    for n in poset.nodes:
        assert not hasattr(n, "__dict__") and not hasattr(n, "uni"), n.name
        assert all(isinstance(m, int) for m in (n.mask, n.exc_gens) if m is not None)
        members = poset.uni.members(n.mask)
        assert list(members) == sorted(members, key=sh.sheaf_sort_key), n.name
    assert any(n.exc_gens is not None for n in poset.nodes)


# ---------------------------------------------------------------------------
# the build without linear algebra

@pytest.mark.parametrize("weights, lo, hi", BENCH_INPUTS)
def test_build_poset_makes_no_linear_algebra(weights, lo, hi, monkeypatch):
    def forbidden(*args):
        raise AssertionError("linear algebra in the poset build")

    for name in ("rref", "nullspace", "solve", "mat_vec", "mat_mul"):
        monkeypatch.setattr(linalg, name, forbidden)
    assert wp.build_poset(make_line(weights), lo, hi).nodes


@pytest.mark.parametrize("weights, lo, hi", BENCH_INPUTS)
def test_build_poset_closes_each_perpendicular_once(weights, lo, hi, monkeypatch):
    """build_poset makes one tube.Universe, the window enlarged by
    universe_margin, and takes one left perpendicular per distinct right
    perpendicular of its rigid window sets."""
    uni, rigid = rigid_window_sets(weights, lo, hi)
    perps = {perp for _, perp in rigid}
    made, closed = [], []

    class Counted(tube.Universe):
        def __init__(self, objects, hom, tau):
            super().__init__(objects, hom, tau)
            made.append(self.objects)

        def left_perp(self, mask):
            closed.append(mask)
            return super().left_perp(mask)

    monkeypatch.setattr(tube, "Universe", Counted)
    wp.build_poset(make_line(weights), lo, hi)
    assert made == [uni.objects]
    assert len(closed) == len(perps) and set(closed) == perps


@pytest.mark.parametrize("weights, lo, hi", BENCH_INPUTS)
def test_build_poset_makes_sheaf_objects_for_names_only(weights, lo, hi, monkeypatch):
    """build_poset lists the sheaf window once, for its universe, and reads
    the members of a mask only to name a node from its snapshot: clipped
    generator sets stay masks."""
    listed, read = [], []
    sheaf_universe = wp.sheaf_universe

    def counted_universe(*args):
        listed.append(args)
        return sheaf_universe(*args)

    class Counted(tube.Universe):
        def members(self, mask):
            read.append(mask)
            return super().members(mask)

    monkeypatch.setattr(wp, "sheaf_universe", counted_universe)
    monkeypatch.setattr(tube, "Universe", Counted)
    poset = wp.build_poset(make_line(weights), lo, hi)
    assert poset.clipped and poset.undecidable == ()
    assert len(listed) == 1
    assert read == [n.mask for n in poset.nodes if n.cinv is None]
    assert all(isinstance(gens, int) for gens in poset.clipped)


def reference_mask_key(mask):
    """Size, then the sorted bit indices."""
    return mask.bit_count(), tuple(tube.bits(mask))


@pytest.mark.parametrize("weights, lo, hi", BENCH_INPUTS)
def test_nodes_and_least_generators_follow_reference_key(weights, lo, hi):
    """Nodes come in the reference order, and each exceptional node keeps
    the least rigid set, by the reference key, of its perpendicular."""
    uni, rigid = rigid_window_sets(weights, lo, hi)
    perp_of, by_perp = {}, {}
    for gens, perp in rigid:
        perp_of[gens] = perp
        by_perp.setdefault(perp, []).append(gens)
    poset = wp.build_poset(make_line(weights), lo, hi)
    masks = [n.mask for n in poset.nodes]
    assert masks == sorted(masks, key=reference_mask_key)
    exc = [n for n in poset.nodes if n.exc_gens is not None]
    assert exc
    for n in exc:
        assert n.exc_gens == min(by_perp[perp_of[n.exc_gens]], key=reference_mask_key), n.name


def reference_extract_exc_sequence(n: int, mask: int) -> int:
    """Greedy exceptional sequence generating an exc lattice mask, as a
    mask over tube_universe(n): the extractor that the tube layer kept
    beside its rigid-set walk.

    Picks the least member, restricts to its right perpendicular among
    the members, and repeats; the class independence of the members
    bounds the number of steps by the rank.  The picks, last one first,
    are checked to be an exceptional sequence (vanishing from later to
    earlier) that regenerates the mask.
    """
    if not tube.is_exc(n, mask):
        raise ValueError("mask is not exceptional-side, no sequence exists")
    uni = tube.tube_universe(n)
    members, greedy = mask, []
    while members:
        i = next(tube.bits(members))
        greedy.append(uni.objects[i])
        if len(greedy) > n:
            raise AssertionError("extraction exceeded the rank bound")
        members &= uni.right[i]
    if rank([list(a.factor_counts()) for a in greedy]) != len(greedy):
        raise AssertionError("extracted classes are dependent")
    if not tube.is_exc_sequence(reversed(greedy)):
        raise AssertionError("greedy extraction produced a non-sequence")
    seq = uni.mask(greedy)
    if uni.double_perp(seq) != mask:
        raise AssertionError("extracted sequence does not regenerate the subcategory")
    return seq


def reference_cinv_snapshot(line, data, uni):
    """Per-point arcs and ordinary simples, and the bundles in the right
    perpendicular of an exceptional sequence generating the defining
    data, extracted per point by the greedy reference; arcs enter the
    universe as sheaves, by its index, not by a shift."""
    widx = line.weighted_indices()
    members = uni.mask([sh.TorsionArc(line, i, a)
                        for point, i in zip(point_arcs(line, data.per_point), widx) for a in point]
                       + [sh.OrdinaryTorsion(line, q, 1) for q in data.ordinary_support])
    if data.contains_bundle:
        seqs = [reference_extract_exc_sequence(line.weights[i], m)
                for m, i in zip(data.defining_exc, widx)]
        seq = uni.mask(sh.TorsionArc(line, i, a)
                       for point, i in zip(point_arcs(line, seqs), widx) for a in point)
        bundles = uni.mask(x for x in uni.objects if isinstance(x, sh.LineBundle))
        members |= uni.right_perp(seq) & bundles
    return members


@pytest.mark.parametrize("weights, lo, hi, ids",
                         [(*inp, ()) for inp in BENCH_INPUTS] + [((1, 1), -2, 3, ("0", "1"))])
def test_cinv_snapshot_matches_defining_sequence(weights, lo, hi, ids):
    """The perpendicular of the defining subcategory is that of the
    exceptional sequence extracted from it, on every shift-invariant
    subcategory."""
    line = make_line(weights)
    uni = margin_universe(weights, lo, hi, ids)
    offset = wp.torsion_offsets(uni)
    datas = wp.enumerate_wid_c(line, ids)
    assert any(d.contains_bundle for d in datas)
    for data in datas:
        assert wp.cinv_snapshot(line, data, uni, offset) == reference_cinv_snapshot(line, data, uni), data


@pytest.mark.parametrize("weights, lo, hi, ids", UNIVERSE_INPUTS)
def test_point_arcs_are_one_tube_universe_block(weights, lo, hi, ids):
    """The shift that moves a tube mask into the poset universe: at each
    weighted point the universe's arcs are one contiguous block, from the
    point's offset, equal to tube_universe(weight).objects in order, and
    each ordinary point's offset is its simple."""
    line = make_line(weights)
    uni = margin_universe(weights, lo, hi, ids)
    offset = wp.torsion_offsets(uni)
    for i in line.weighted_indices():
        at = [k for k, x in enumerate(uni.objects) if isinstance(x, sh.TorsionArc) and x.point == i]
        arcs = tube.tube_universe(line.weights[i]).objects
        assert at == list(range(offset[i], offset[i] + len(arcs))), i
        assert tuple(uni.objects[k].arc for k in at) == arcs, i
    assert [uni.objects[offset[q]] for q in ids] == [sh.OrdinaryTorsion(line, q, 1) for q in ids]
    assert len(offset) == len(line.weighted_indices()) + len(ids)


# ---------------------------------------------------------------------------
# the fingerprint path that the tube masks replaced

def reference_sort_key(f):
    """Listing order of fingerprints: by size, then by the sorted member arcs."""
    return len(f.arcs), tuple(sorted(a.sort_key() for a in f.arcs))


def reference_exc(f) -> bool:
    return all(a.length < f.rank for a in f.arcs)


def reference_perp_pair(f):
    """Right perpendicular of an exc fingerprint inside the tube, left
    perpendicular of a non-exc one."""
    uni = tube.tube_universe(f.rank)
    mask = uni.mask(f.arcs)
    partner = uni.right_perp(mask) if reference_exc(f) else uni.left_perp(mask)
    return tube.TubeWideFingerprint(f.rank, frozenset(uni.members(partner)))


def reference_enumerate_wid_c(line, universe_ids):
    """Shift-invariant data as (per_point, support, bundles, defining) with
    one fingerprint per weighted point, in the enumeration order."""
    lattices = [sorted(tube.enumerate_wide(line.weights[i]), key=reference_sort_key)
                for i in line.weighted_indices()]
    ids = sorted(universe_ids)
    out = []
    for fps in itertools.product(*lattices):
        for r in range(len(ids) + 1):
            for chosen in itertools.combinations(ids, r):
                out.append((fps, frozenset(chosen), False, None))
    exc_sides = [[fp for fp in lat if reference_exc(fp)] for lat in lattices]
    for fps in itertools.product(*exc_sides):
        out.append((tuple(map(reference_perp_pair, fps)), frozenset(universe_ids), True, fps))
    return out


@pytest.mark.parametrize("weights, ids", sorted({(w, ids) for w, _, _, ids in UNIVERSE_INPUTS}))
def test_enumerate_wid_c_matches_fingerprint_reference(weights, ids):
    """The mask data, decoded to one fingerprint per weighted point, are
    the fingerprint path's data, in its order."""
    line = make_line(weights)

    def decoded(masks):
        return tuple(tube.TubeWideFingerprint(line.weights[i], arcs) for arcs, i
                     in zip(point_arcs(line, masks), line.weighted_indices()))

    got = [(decoded(d.per_point), d.ordinary_support, d.contains_bundle,
            None if d.defining_exc is None else decoded(d.defining_exc))
           for d in wp.enumerate_wid_c(line, ids)]
    assert got == reference_enumerate_wid_c(line, ids)


@pytest.mark.parametrize("weights, lo, hi, ids",
                         [(*inp, ()) for inp in BENCH_INPUTS]
                         + [((1, 1), -2, 3, ("0", "1")), ((2, 2), -4, 4, ("q",))])
def test_node_masks_closed_under_meet(weights, lo, hi, ids):
    """An intersection of wide subcategories is wide, so the AND of any
    two node masks of the universe is again a node mask."""
    masks = {n.mask for n in wp.build_poset(make_line(weights), lo, hi, ids).nodes}
    assert {a & b for a, b in itertools.combinations(masks, 2)} <= masks


# ---------------------------------------------------------------------------
# the order on node indices

def reference_poset_dot(poset):
    """The DOT output with heights by a memoized recursion over the named
    cover pairs, each name one above its highest lower cover."""
    covers = poset.covers()
    below = {n.name: [] for n in poset.nodes}
    for a, b in covers:
        below[b].append(a)
    heights = {}

    def height(name):
        if name not in heights:
            heights[name] = 1 + max((height(a) for a in below[name]), default=-1)
        return heights[name]

    for n in poset.nodes:
        height(n.name)
    lines = ["digraph wid {", "  rankdir=BT;"]
    for name in sorted(heights):
        lines.append(f'  "{name}";')
    for h in sorted(set(heights.values())):
        group = sorted(n for n, hh in heights.items() if hh == h)
        lines.append("  { rank=same; " + " ".join(f'"{n}";' for n in group) + " }")
    for a, b in covers:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("weights, lo, hi, ids", UNIVERSE_INPUTS)
def test_dot_heights_match_named_recursion(weights, lo, hi, ids):
    """One forward pass over the index covers gives the rank groups of
    the recursion over named covers: each cover goes to a larger index,
    and the covers come in ascending order of their lower index."""
    poset = wp.build_poset(make_line(weights), lo, hi, ids)
    lower = [i for i, _ in poset.index_covers]
    assert lower == sorted(lower) and all(i < j for i, j in poset.index_covers)
    assert poset.covers() == sorted((poset.nodes[i].name, poset.nodes[j].name)
                                    for i, j in poset.index_covers)
    assert wp.poset_dot(poset) == reference_poset_dot(poset)


def degree_one_shift(line):
    """The least element of degree 1, by normal form."""
    return min(wp.window_degrees(line, 1, 1), key=lambda l: (l.coeffs, l.c_part))


def carried(mask, perm):
    return sum(1 << perm[k] for k in tube.bits(mask))


@pytest.mark.parametrize("weights, lo, hi, ids", UNIVERSE_INPUTS)
def test_degree_one_shift_carries_the_poset(weights, lo, hi, ids):
    """Shifting by an element l of degree 1 maps the universe of lo..hi
    onto that of lo+1..hi+1, and with it the nodes of the one poset
    bijectively onto those of the other, carrying the node kinds, the
    above, exc and cinv rows and the clipped count."""
    line = make_line(weights)
    l = degree_one_shift(line)
    a, b = wp.build_poset(line, lo, hi, ids), wp.build_poset(line, lo + 1, hi + 1, ids)
    perm = [b.uni.index[sh.shift(x, l)] for x in a.uni.objects]
    assert sorted(perm) == list(range(len(b.uni.objects)))
    at = {n.mask: j for j, n in enumerate(b.nodes)}
    nodes = [at[carried(n.mask, perm)] for n in a.nodes]
    assert sorted(nodes) == list(range(len(b.nodes)))

    def kind(n):
        return n.exc_gens is not None, n.cinv is not None

    for i, j in enumerate(nodes):
        assert kind(a.nodes[i]) == kind(b.nodes[j]), a.nodes[i].name
        for rows in ("above", "exc", "cinv"):
            assert carried(getattr(a, rows)[i], nodes) == getattr(b, rows)[j], (rows, a.nodes[i].name)
    assert len(a.clipped) == len(b.clipped)
    assert a.undecidable == b.undecidable == ()
