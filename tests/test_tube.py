"""Tube combinatorics: hom/ext oracles, the wide lattice and its maps."""

import functools
import itertools
import random

import pytest

from wpline.grading import make_line
from wpline.nilpotent import Arc, cokernel_rep, decompose, kernel_rep
from wpline import tube
from wpline.widposet import build_poset

from test_widposet import BENCH_INPUTS


def lattice_sorted(n):
    return sorted(tube.enumerate_wide(n),
                  key=lambda f: (len(f.arcs), sorted(a.sort_key() for a in f.arcs)))


def test_hom_dim_matches_winding_oracle():
    """The closed-form winding count equals the dimension of the Hom
    basis computed by the linear-algebra oracle."""
    for n in range(1, 5):
        arcs = list(tube.all_arcs(n, n + 1))
        for a, b in itertools.product(arcs, repeat=2):
            assert tube.hom_dim(a, b) == len(tube.arc_hom_basis(a, b)), (a, b)


def test_ext_is_hom_into_translate():
    for n in range(1, 4):
        arcs = list(tube.all_arcs(n, n + 1))
        for a, b in itertools.product(arcs, repeat=2):
            assert tube.ext_dim(a, b) == len(tube.arc_hom_basis(b, a.tau())), (a, b)


def test_closed_ext_matches_translate_and_presentation():
    """The closed Ext winding count equals Hom into the built translate
    and, on arcs up to full length, the presentation count."""
    for n in range(1, 6):
        arcs = list(tube.all_arcs(n, 2 * n + 1))
        for a, b in itertools.product(arcs, repeat=2):
            assert tube.ext_dim(a, b) == tube.hom_dim(b, a.tau()), (a, b)
            if a.length <= n and b.length <= n:
                assert tube.ext_dim(a, b) == tube.ext_dim_via_presentation(a, b), (a, b)


def test_ext_presentation_path_agrees():
    """Projective-free presentation count equals the duality count."""
    for n in range(1, 4):
        arcs = list(tube.all_arcs(n, n))
        for a, b in itertools.product(arcs, repeat=2):
            assert tube.ext_dim(a, b) == tube.ext_dim_via_presentation(a, b), (a, b)


def hom_nonzero_criterion(a: Arc, b: Arc) -> bool:
    """Fast predicate: Hom(a, b) != 0 iff top(a) is a factor of b and
    the socle of b is a factor of a."""
    return a.top in b.factors() and b.socle in a.factors()


def test_hom_nonzero_criterion():
    for n in (2, 3):
        arcs = list(tube.all_arcs(n, n + 1))
        for a, b in itertools.product(arcs, repeat=2):
            assert hom_nonzero_criterion(a, b) == (tube.hom_dim(a, b) > 0)


def test_exceptional_means_short():
    for n in (1, 2, 3, 4):
        for a in tube.all_arcs(n, n + 2):
            assert tube.is_exceptional(a) == (a.length < n)
            assert (tube.ext_dim(a, a) == 0) == (a.length < n)


def test_lattice_counts():
    # central binomial coefficients
    expected = {1: 2, 2: 6, 3: 20, 4: 70, 5: 252}
    for n, count in expected.items():
        assert len(tube.enumerate_wide(n)) == count


def test_lattice_matches_bruteforce():
    for n in (1, 2):
        assert tube.enumerate_wide(n) == tube.enumerate_wide_bruteforce(n)


def test_rank_two_lattice_frozen():
    fps = lattice_sorted(2)
    seen = [(f.exc, sorted((a.socle, a.length) for a in f.arcs)) for f in fps]
    assert seen == [
        (True, []),
        (True, [(0, 1)]),
        (False, [(0, 2)]),
        (True, [(1, 1)]),
        (False, [(1, 2)]),
        (False, [(0, 1), (0, 2), (1, 1), (1, 2)]),
    ]


def whole_fingerprint(n):
    return tube.TubeWideFingerprint(n, frozenset(tube.all_arcs(n, n)))


def test_wide_closure_of_two_simples_is_whole():
    f = tube.wide_closure([Arc(2, 0, 1), Arc(2, 1, 1)])
    assert f == whole_fingerprint(2)
    assert not f.exc


def test_wide_closure_idempotent():
    for n in (2, 3):
        for f in tube.enumerate_wide(n):
            if not f.arcs:
                continue
            assert tube.wide_closure(f.arcs) == f


def test_wide_closure_needs_rank_for_empty_input():
    with pytest.raises(ValueError):
        tube.wide_closure(())


@pytest.mark.parametrize("gens", [[Arc(2, 0, 5)], [Arc(2, 0, 1), Arc(2, 1, 3)], [Arc(1, 0, 2)]])
def test_wide_closure_rejects_generators_longer_than_rank(gens):
    with pytest.raises(ValueError, match="longer than the rank"):
        tube.wide_closure(gens)


def test_perp_pair_swaps_halves_and_inverts():
    for n in (1, 2, 3, 4):
        lattice = tube.enumerate_wide(n)
        for f in lattice:
            g = tube.perp_pair(f)
            assert g in lattice
            assert g.exc != f.exc
            assert tube.perp_pair(g) == f


def test_perp_pair_frozen_examples():
    zero = tube.TubeWideFingerprint(3, frozenset())
    assert tube.perp_pair(zero) == whole_fingerprint(3)
    # one simple in the rank 2 tube faces the opposite full arc
    f = tube.wide_closure([Arc(2, 0, 1)])
    assert sorted((a.socle, a.length) for a in tube.perp_pair(f).arcs) == [(1, 2)]


def test_perp_of_full_stack_is_simple_ladder():
    """The left perpendicular of the full-length arc is generated by
    the rank minus one simples away from its socle."""
    for n in (2, 3, 4):
        full = tube.wide_closure([Arc(n, 0, n)])
        ladder = tube.wide_closure([Arc(n, s, 1) for s in range(1, n)])
        assert tube.perp_pair(full) == ladder


def test_rigidity():
    assert tube.is_rigid_set([Arc(3, 0, 1), Arc(3, 0, 2)])
    assert not tube.is_rigid_set([Arc(3, 0, 1), Arc(3, 1, 1)])
    assert not tube.is_rigid_set([Arc(2, 0, 2)])


def test_extension_middles_frozen():
    # ext is one dimensional here, so the lone nonsplit middle is the
    # length 2 arc through both simples
    mids = tube.extension_middles(Arc(2, 0, 1), Arc(2, 1, 1))
    assert mids == {(Arc(2, 1, 2),)}


def test_bongartz_complete_frozen():
    n = 3
    a = (Arc(3, 0, 1),)
    done = tube.bongartz_complete(a, ())
    assert tube.is_rigid_set(done)
    assert set(a) <= set(done)
    assert tube.wide_closure(done).arcs >= tube.wide_closure(a).arcs


def test_bongartz_complete_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        tube.bongartz_complete((Arc(2, 0, 2),), ())


def test_order_exc_sequence_gives_exc_sequence():
    for n in (2, 3):
        for f in tube.enumerate_wide(n):
            if not f.exc or not f.arcs:
                continue
            seq = tube.extract_exc_sequence(f)
            assert tube.is_exc_sequence(seq)
            assert tube.wide_closure(seq) == f


def test_order_exc_sequence_frozen():
    seq = tube.order_exc_sequence([Arc(3, 0, 2), Arc(3, 0, 1)])
    assert tube.is_exc_sequence(seq)
    assert set(seq) == {Arc(3, 0, 2), Arc(3, 0, 1)}
    assert not tube.is_exc_sequence(list(seq) + [Arc(3, 0, 2)])
    assert not tube.is_exc_sequence([Arc(3, 0, 1), Arc(3, 0, 1)])


def test_exc_perp_decompose_simple():
    # the opposite simple extends S_0, so only the full opposite arc
    # survives in the perpendicular
    block1, block2 = tube.exc_perp_decompose(Arc(2, 0, 1))
    assert block2 == frozenset()
    members = [x for x in tube.all_arcs(2, 2) if x in block1]
    assert sorted((a.socle, a.length) for a in members) == [(1, 2)]


def test_exc_perp_decompose_stack():
    """A length 2 arc in the rank 3 tube splits its perpendicular into
    an orthogonal pair of blocks covering it."""
    e = Arc(3, 1, 2)
    block1, block2 = tube.exc_perp_decompose(e)
    assert sorted((a.socle, a.length) for a in block2) == [(1, 1)]
    perp = [x for x in tube.all_arcs(3, 3)
            if tube.hom_dim(e, x) == 0 and tube.ext_dim(e, x) == 0]
    b1 = [x for x in perp if x in block1]
    rest = [x for x in perp if x not in b1]
    assert set(rest) <= set(block2) | {x for x in tube.all_arcs(3, 3) if not tube.is_exceptional(x)}
    for x in b1:
        for y in block2:
            assert tube.hom_dim(x, y) == 0 and tube.ext_dim(x, y) == 0
            assert tube.hom_dim(y, x) == 0 and tube.ext_dim(y, x) == 0


def test_exc_perp_decompose_rejects_full_arc():
    with pytest.raises(ValueError):
        tube.exc_perp_decompose(Arc(2, 0, 2))


# ---------------------------------------------------------------------------
# the id-indexed pair table against the set-based closure it replaced

REF_PAIR_KC: dict = {}
REF_PAIR_MID: dict = {}
# one memo per oracle call for the whole module: the pair-table and the
# middle tests read the same extensions
extension_middles = functools.cache(tube.extension_middles)
middle_summands = functools.cache(tube._middle_summands)


def reference_pair_kernel_cokernel(a: Arc, b: Arc) -> frozenset:
    key = (a, b)
    if key not in REF_PAIR_KC:
        found = set()
        ra, rb = tube._rep(a), tube._rep(b)
        for f in tube.arc_hom_basis(a, b):
            for rep_kind in (kernel_rep(ra, rb, f), cokernel_rep(ra, rb, f)):
                found.update(decompose(rep_kind))
        REF_PAIR_KC[key] = frozenset(found)
    return REF_PAIR_KC[key]


def reference_pair_middles(a: Arc, b: Arc) -> frozenset:
    key = (a, b)
    if key not in REF_PAIR_MID:
        found = set()
        for summands in tube.extension_middles(a, b):
            found.update(summands)
        REF_PAIR_MID[key] = frozenset(found)
    return REF_PAIR_MID[key]


def reference_closure_members(gens, cap: int) -> frozenset:
    """Arcs of length <= cap in the wide closure, as sets of Arcs."""
    members = {g for g in gens if g.length <= cap}
    while True:
        new = set()
        current = sorted(members, key=lambda a: a.sort_key())
        for a in current:
            for b in current:
                for arc in reference_pair_kernel_cokernel(a, b):
                    if arc.length <= cap and arc not in members:
                        new.add(arc)
                for arc in reference_pair_middles(a, b):
                    if arc.length <= cap and arc not in members:
                        new.add(arc)
        if not new:
            return frozenset(members)
        members.update(new)


def test_arc_ids_enumerate_arcs_by_length():
    for n in (1, 2, 3, 4):
        arcs = tube.all_arcs(n, 3 * n)
        assert sorted(tube.arc_id(a) for a in arcs) == list(range(3 * n * n))
        for a in arcs:
            assert tube.arc_of_id(n, tube.arc_id(a)) == a


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_table_matches_reference(n, monkeypatch):
    """Every ordered pair of arcs up to three times the rank: the table
    row is the set of summands the reference collects for the pair.
    Both read extension middles through one memo, because the oracle
    call is shared code and only the bookkeeping around it changed."""
    monkeypatch.setattr(tube, "extension_middles", extension_middles)
    monkeypatch.setattr(tube, "_middle_summands", middle_summands)
    arcs = tube.all_arcs(n, 3 * n)
    for a, b in itertools.product(arcs, repeat=2):
        want = reference_pair_kernel_cokernel(a, b) | reference_pair_middles(a, b)
        row = tube._pair_row(n, tube.arc_id(a), tube.arc_id(b))
        assert {tube.arc_of_id(n, i) for i in tube.bits(row)} == want, (a, b)


def generator_subsets(n):
    arcs = tube.all_arcs(n, n)
    return [combo for r in range(len(arcs) + 1) for combo in itertools.combinations(arcs, r)]


@pytest.mark.parametrize("n, sample", [(1, None), (2, None), (3, 60)])
def test_closure_members_matches_reference(n, sample):
    """Every generator subset at ranks 1 and 2 and a fixed sample at rank
    3: closing at the rank gives the arcs of length <= n that the
    reference finds when it closes at n, 2n and 3n."""
    subsets = generator_subsets(n)
    if sample is not None:
        subsets = random.Random(n).sample(subsets, sample)
    for gens in subsets:
        got = tube.closure_members(gens)
        for cap in (n, 2 * n, 3 * n):
            want = frozenset(a for a in reference_closure_members(gens, cap) if a.length <= n)
            assert got == want, (gens, cap)


def test_closure_reads_no_pair_longer_than_rank(monkeypatch):
    """The closure never reads the pair-table row of an arc longer than
    the rank, and still finds every fingerprint at rank 3."""
    pair_row = tube._pair_row

    def guarded(n, ia, ib):
        if max(ia, ib) >= n * n:
            raise AssertionError(f"pair row read for ids {ia}, {ib} at rank {n}")
        return pair_row(n, ia, ib)

    monkeypatch.setattr(tube, "_pair_row", guarded)
    tube._closure.cache_clear()
    assert tube.enumerate_wide_bruteforce(3) == tube.enumerate_wide(3)
    for s in range(3):
        assert tube.wide_closure([Arc(3, s, 3)]).arcs == {Arc(3, s, 3)}


def reference_pair_row_closure(n: int, gens, cap: int) -> frozenset:
    """Arcs of length <= cap in the wide closure: a naive fixpoint over id
    masks that ORs the pair-table row of every ordered member pair on
    every pass."""
    capped = (1 << cap * n) - 1
    members = tube._id_mask(gens) & capped
    while True:
        ids = list(tube.bits(members))
        found = members
        for ia in ids:
            for ib in ids:
                found |= tube._pair_row(n, ia, ib)
        found &= capped
        if found == members:
            return frozenset(tube.arc_of_id(n, i) for i in ids)
        members = found


def test_closure_members_matches_pair_row_fixpoint_rank3():
    """Every generator subset at rank 3: closing at the rank gives the
    arcs of length <= 3 of the naive fixpoint closed at 3, 6 and 9."""
    n = 3
    for gens in generator_subsets(n):
        got = tube.closure_members(gens)
        for cap in (n, 2 * n, 3 * n):
            want = frozenset(a for a in reference_pair_row_closure(n, gens, cap) if a.length <= n)
            assert got == want, (gens, cap)


def reference_bruteforce(n: int) -> frozenset:
    """The scan the pair-mask scan replaced: every generator subset that
    is its own wide closure (the empty set always is)."""
    return frozenset(tube.TubeWideFingerprint(n, frozenset(combo))
                     for combo in generator_subsets(n)
                     if not combo or tube.wide_closure(combo).arcs == frozenset(combo))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bruteforce_matches_closure_fixpoint_scan(n, monkeypatch):
    """The scan over pair-table masks finds the fixpoints the closures
    find, and closes nothing itself."""
    want = reference_bruteforce(n)

    def closed(*args):
        raise AssertionError("the brute-force scan called a closure")

    monkeypatch.setattr(tube, "closure_members", closed)
    monkeypatch.setattr(tube, "wide_closure", closed)
    assert tube.enumerate_wide_bruteforce(n) == want


# ---------------------------------------------------------------------------
# presentation inclusions against the slot walk they replaced

def reference_inclusion(k_arc: Arc, p_arc: Arc):
    """The inclusion K -> P placed by walking the basis slots of both arcs."""
    n = k_arc.rank
    kslots = [[] for _ in range(n)]
    for j in range(k_arc.length):
        kslots[(k_arc.socle + j) % n].append(j)
    pslots = [[] for _ in range(n)]
    for j in range(p_arc.length):
        pslots[(p_arc.socle + j) % n].append(j)
    incl = []
    for i in range(n):
        m = [[0] * len(kslots[i]) for _ in range(len(pslots[i]))]
        for kc, j in enumerate(kslots[i]):
            m[pslots[i].index(j)][kc] = 1
        incl.append(tuple(tuple(row) for row in m))
    return tuple(incl)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inclusion_matches_slot_walk(n):
    """Every presentation ext_classes builds for arcs up to three times
    the rank: the identity blocks are the slot-walk inclusion, and the
    classes carry that presentation."""
    for a, b in itertools.product(tube.all_arcs(n, 3 * n), repeat=2):
        big = a.length + b.length + n
        p_arc = Arc(n, (a.socle + a.length - big) % n, big)
        k_arc = Arc(n, p_arc.socle, big - a.length)
        got = tube._inclusion_matrices(tube._rep(k_arc), tube._rep(p_arc))
        assert got == reference_inclusion(k_arc, p_arc), (a, b)
        assert all(cls[:3] == (k_arc, p_arc, got) for cls in tube.ext_classes(a, b)), (a, b)


# ---------------------------------------------------------------------------
# exact extension middles against the sampler they replaced

def scaled_sum_class(c1, c2, coef: int):
    k_arc, p_arc, incl, g1 = c1
    _, _, _, g2 = c2
    g = tuple(tuple(tuple(g1[i][r][c] + coef * g2[i][r][c]
                          for c in range(len(g1[i][r])))
                    for r in range(len(g1[i])))
              for i in range(len(g1)))
    return (k_arc, p_arc, incl, g)


def reference_extension_middles(a: Arc, b: Arc):
    """Middles over every basis class and, for Ext of dimension two or
    more, over pairwise sums with coefficients 1 and 2; coefficient 3
    must add nothing, or the sample is reported as not stable."""
    classes = tube.ext_classes(a, b)
    middles = {middle_summands(b, cls) for cls in classes}
    if len(classes) >= 2:
        seen_small = set(middles)
        for i, j in itertools.combinations(range(len(classes)), 2):
            for coef in (1, 2):
                seen_small.add(middle_summands(b, scaled_sum_class(classes[i], classes[j], coef)))
        seen_full = set(seen_small)
        for i, j in itertools.combinations(range(len(classes)), 2):
            seen_full.add(middle_summands(b, scaled_sum_class(classes[i], classes[j], 3)))
        assert seen_full == seen_small, "extension middle sampling did not stabilize"
        middles = seen_full
    return middles


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extension_middles_match_sampler(n, monkeypatch):
    """Every ordered pair of arcs up to three times the rank: the orbit
    enumeration equals the sampler, no basis class has the split middle
    (the premise that lets the enumeration drop it), and every middle
    has the total length of its ends."""
    monkeypatch.setattr(tube, "_middle_summands", middle_summands)
    arcs = tube.all_arcs(n, 3 * n)
    for a, b in itertools.product(arcs, repeat=2):
        mids = extension_middles(a, b)
        assert mids == reference_extension_middles(a, b), (a, b)
        split = tuple(sorted((a, b), key=Arc.sort_key))
        assert all(middle_summands(b, cls) != split for cls in tube.ext_classes(a, b)), (a, b)
        assert all(sum(x.length for x in m) == a.length + b.length for m in mids), (a, b)


@pytest.mark.parametrize("n", [1, 2])
def test_extension_middles_any_basis(n, monkeypatch):
    """The enumeration holds for any basis of Ext, not only the oracle's
    {g, t g, ...}: the basis h_j + (h_1 + ... + h_d) made from that one
    has only generators, and the middles still match the sampler's."""
    arcs = tube.all_arcs(n, 3 * n)
    pairs = [(a, b) for a, b in itertools.product(arcs, repeat=2)
             if len(tube.ext_classes(a, b)) >= 2]
    assert pairs
    monkeypatch.setattr(tube, "_middle_summands", middle_summands)
    want = [reference_extension_middles(a, b) for a, b in pairs]
    ext_classes = tube.ext_classes

    def rotated(a, b):
        classes = ext_classes(a, b)
        total = functools.reduce(lambda c1, c2: scaled_sum_class(c1, c2, 1), classes)
        return [scaled_sum_class(c, total, 1) for c in classes]

    monkeypatch.setattr(tube, "ext_classes", rotated)
    for (a, b), mids in zip(pairs, want):
        assert tube.extension_middles(a, b) == mids, (a, b)


# ---------------------------------------------------------------------------
# the Hasse reduction

def reference_inclusion_order(masks):
    """Strict inclusion rows and covers with the reduction written out: a
    set above i covers it unless it lies above another set above i, found
    by ORing the rows of every set above i."""
    held = tube.holders(masks)
    everyone = (1 << len(masks)) - 1
    above = [tube.meet(held, m, everyone) & ~(1 << i) for i, m in enumerate(masks)]
    covers = []
    for i, up in enumerate(above):
        reach = 0
        for k in tube.bits(up):
            reach |= above[k]
        covers.extend((i, j) for j in tube.bits(up & ~reach))
    return above, covers


def order_inputs():
    posets = [(w, lo, hi, ()) for w, lo, hi in BENCH_INPUTS] + [((1, 1), -2, 3, ("0", "1"))]
    return ([pytest.param(p, id=f"poset-{','.join(map(str, p[0]))}-{len(p[3])}") for p in posets]
            + [pytest.param(n, id=f"tube-enum-{n}") for n in range(1, 6)])


@pytest.mark.parametrize("case", order_inputs())
def test_inclusion_order_matches_reference(case):
    """The lowest-bit walk gives the rows and the cover list, in order, of
    the reduction that ORs every row above, on the node masks of the
    benchmark posets (and of 1,1 with two ordinary points) and on the
    tube-enum lattices of ranks 1 to 5."""
    if isinstance(case, int):
        uni = tube.tube_universe(case)
        fps = sorted(tube.enumerate_wide(case), key=tube.TubeWideFingerprint.sort_key)
        masks = [uni.mask(f.arcs) for f in fps]
    else:
        weights, lo, hi, ids = case
        masks = [n.mask for n in build_poset(make_line(weights), lo, hi, ids).nodes]
    assert tube.inclusion_order(masks) == reference_inclusion_order(masks)
