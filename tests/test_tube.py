"""Tube combinatorics: hom/ext oracles, the wide lattice and its maps."""

import collections
import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wpline.grading import make_line
from wpline.nilpotent import Arc, decompose, rep_of_arc
from wpline import linalg, nilpotent, tube, verify
from wpline.widposet import build_poset

from test_linalg import mat_mul, rank
from test_nilpotent import reference_cokernel_rep, reference_direct_sum, reference_kernel_rep, tau
from test_widposet import (BENCH_INPUTS, reference_exc, reference_extract_exc_sequence,
                           reference_level_key, reference_perp_pair, reference_sort_key)


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
            assert tube.ext_dim(a, b) == len(tube.arc_hom_basis(b, tau(a))), (a, b)


def test_closed_ext_matches_translate_and_presentation():
    """The closed Ext winding count equals Hom into the built translate
    and, on arcs up to full length, the standard resolution's count."""
    for n in range(1, 6):
        arcs = list(tube.all_arcs(n, 2 * n + 1))
        for a, b in itertools.product(arcs, repeat=2):
            assert tube.ext_dim(a, b) == tube.hom_dim(b, tau(a)), (a, b)
            if a.length <= n and b.length <= n:
                assert tube.ext_dim(a, b) == tube.ext_dim_via_presentation(a, b), (a, b)


def test_ext_presentation_path_agrees():
    """The standard resolution's count equals the duality count."""
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
    uni = tube.tube_universe(2)
    seen = [(tube.is_exc(2, m), sorted((a.socle, a.length) for a in uni.members(m)))
            for m in tube.tube_lattice(2)]
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
    assert not tube.is_exc(2, tube.tube_universe(2).mask(f.arcs))


def test_wide_closure_idempotent():
    """Every lattice mask at ranks 1-4 is its own oracle closure, compared
    as integers over the shared arc numbering and as fingerprints."""
    for n in (1, 2, 3, 4):
        for m in tube.tube_lattice(n):
            assert tube.closure_members(n, m) == m, (n, m)
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
        lattice = tube.tube_lattice(n)
        for m in lattice:
            g = tube.perp_pair(n, m)
            assert g in lattice
            assert tube.is_exc(n, g) != tube.is_exc(n, m)
            assert tube.perp_pair(n, g) == m


def test_perp_pair_frozen_examples():
    uni3, uni2 = tube.tube_universe(3), tube.tube_universe(2)
    assert tube.perp_pair(3, 0) == uni3.mask(whole_fingerprint(3).arcs)
    # one simple in the rank 2 tube faces the opposite full arc
    f = uni2.mask(tube.wide_closure([Arc(2, 0, 1)]).arcs)
    assert sorted((a.socle, a.length) for a in uni2.members(tube.perp_pair(2, f))) == [(1, 2)]


def test_perp_of_full_stack_is_simple_ladder():
    """The left perpendicular of the full-length arc is generated by
    the rank minus one simples away from its socle."""
    for n in (2, 3, 4):
        uni = tube.tube_universe(n)
        full = uni.mask(tube.wide_closure([Arc(n, 0, n)]).arcs)
        ladder = uni.mask(tube.wide_closure([Arc(n, s, 1) for s in range(1, n)]).arcs)
        assert tube.perp_pair(n, full) == ladder


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lattice_masks_match_fingerprint_reference(n):
    """The mask lattice, decoded, is the fingerprint lattice in the listing
    order of the fingerprint path, and its exc test and perpendicular
    pairing are that path's."""
    uni = tube.tube_universe(n)
    lattice = tube.tube_lattice(n)
    decoded = [tube.TubeWideFingerprint(n, frozenset(uni.members(m))) for m in lattice]
    assert decoded == sorted(tube.enumerate_wide(n), key=reference_sort_key)
    for m, f in zip(lattice, decoded):
        assert tube.is_exc(n, m) == reference_exc(f), f
        assert frozenset(uni.members(tube.perp_pair(n, m))) == reference_perp_pair(f).arcs, f


def reference_tube_lattice(n):
    """Two passes: the double perpendicular of every rigid arc set, then
    the right perpendicular of each of those."""
    uni = tube.tube_universe(n)
    exc = {uni.left_perp(perp) for _, perp in uni.rigid_subsets(uni.full)}
    return tuple(sorted(exc | {uni.right_perp(m) for m in exc}, key=tube.level_key))


@pytest.mark.parametrize("n", range(1, tube.MAX_RANK + 1))
def test_lattice_matches_two_pass_reference(n):
    assert tube.tube_lattice(n) == reference_tube_lattice(n)


@pytest.mark.parametrize("n", range(1, tube.MAX_RANK + 1))
def test_tube_lattice_closes_each_perpendicular_once(n, monkeypatch):
    """The lattice takes no right perpendicular, since the rigid-set walk
    carries them, and one left perpendicular per distinct carried one."""
    uni = tube.tube_universe(n)
    perps = {perp for _, perp in uni.rigid_subsets(uni.full)}
    expected = tube.tube_lattice(n)
    closed = []

    def left_perp(mask):
        closed.append(mask)
        return tube.Universe.left_perp(uni, mask)

    def right_perp(mask):
        raise AssertionError("right perpendicular taken again")

    monkeypatch.setattr(uni, "left_perp", left_perp)
    monkeypatch.setattr(uni, "right_perp", right_perp)
    assert tube.tube_lattice.__wrapped__(n) == expected
    assert sorted(closed) == sorted(perps)


def test_rigidity():
    assert tube.is_rigid_set([Arc(3, 0, 1), Arc(3, 0, 2)], tube.ext_dim)
    assert not tube.is_rigid_set([Arc(3, 0, 1), Arc(3, 1, 1)], tube.ext_dim)
    assert not tube.is_rigid_set([Arc(2, 0, 2)], tube.ext_dim)


def test_extension_middles_frozen():
    # ext is one dimensional here, so the lone nonsplit middle is the
    # length 2 arc through both simples
    mids = tube.extension_middles(Arc(2, 0, 1), Arc(2, 1, 1))
    assert mids == {(Arc(2, 1, 2),)}


def test_bongartz_complete_frozen():
    n = 3
    a = (Arc(3, 0, 1),)
    done = tube.bongartz_complete(a, ())
    assert tube.is_rigid_set(done, tube.ext_dim)
    assert set(a) <= set(done)
    assert tube.wide_closure(done).arcs >= tube.wide_closure(a).arcs


def test_bongartz_complete_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        tube.bongartz_complete((Arc(2, 0, 2),), ())


def test_bongartz_complete_of_no_arcs_is_empty():
    assert tube.bongartz_complete([], []) == ()


@pytest.mark.parametrize("call, message", [
    (lambda: tube.hom_dim(Arc(2, 0, 1), Arc(3, 0, 1)), "arcs from tubes of different rank"),
    (lambda: tube.ext_dim(Arc(2, 0, 1), Arc(3, 0, 1)), "arcs from tubes of different rank"),
    (lambda: tube.wide_closure([Arc(2, 0, 1), Arc(3, 0, 1)]),
     "generators from tubes of different rank"),
    (lambda: tube.order_exc_sequence([Arc(2, 0, 1), Arc(2, 0, 1)]),
     "members must be pairwise distinct"),
    # Hom both ways, so the extraction loop finds no member to place last
    (lambda: tube.order_exc_sequence([Arc(4, 0, 3), Arc(4, 2, 3)]),
     "set admits no exceptional ordering"),
    # Hom neither way but Ext both ways, so the final check refuses the order
    (lambda: tube.order_exc_sequence([Arc(2, 0, 1), Arc(2, 1, 1)]),
     "set admits no exceptional ordering"),
    (lambda: tube.bongartz_complete([Arc(2, 1, 1)], [Arc(2, 0, 1)]),
     "Ext from the first set to the second must vanish"),
], ids=["hom-rank", "ext-rank", "closure-rank", "order-repeat", "order-hom-cycle",
        "order-ext-cycle", "bongartz-ext"])
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_order_exc_sequence_gives_exc_sequence():
    for n in (2, 3):
        uni = tube.tube_universe(n)
        for m in tube.tube_lattice(n):
            if not tube.is_exc(n, m) or not m:
                continue
            seq = verify._exc_sequence(n, m)
            assert tube.is_exc_sequence(seq)
            assert uni.mask(tube.wide_closure(seq).arcs) == m


@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 10), (4, 35), (5, 126), (6, 462)])
def test_walk_and_greedy_reference_generate_every_exc_mask(n, count):
    """On every exc mask of the lattice, the least rigid generator that
    the rigid-set walk finds orders into an exceptional sequence whose
    double perpendicular is the mask, and so does the greedy reference
    extractor's sequence."""
    uni = tube.tube_universe(n)
    exc = [m for m in tube.tube_lattice(n) if tube.is_exc(n, m)]
    assert len(exc) == count
    for m in exc:
        walk = verify._exc_sequence(n, m)
        greedy = tube.order_exc_sequence(uni.members(reference_extract_exc_sequence(n, m)))
        for seq in (walk, greedy):
            assert len(seq) < n
            assert tube.is_exc_sequence(seq), (n, m, seq)
            assert uni.double_perp(uni.mask(seq)) == m, (n, m, seq)


def test_order_exc_sequence_frozen():
    seq = tube.order_exc_sequence([Arc(3, 0, 2), Arc(3, 0, 1)])
    assert tube.is_exc_sequence(seq)
    assert set(seq) == {Arc(3, 0, 2), Arc(3, 0, 1)}
    assert not tube.is_exc_sequence(list(seq) + [Arc(3, 0, 2)])
    assert not tube.is_exc_sequence([Arc(3, 0, 1), Arc(3, 0, 1)])


def perp_blocks(e: Arc):
    """The two blocks of the right perpendicular of an exceptional arc, as
    masks over tube_universe(rank): the arcs orthogonal to every simple
    of e, and the wide closure of its simples but the top one."""
    uni = tube.tube_universe(e.rank)
    ladder = [Arc(e.rank, s, 1) for s in e.factors()]
    return uni.right_perp(uni.mask(ladder)), uni.double_perp(uni.mask(ladder[:-1]))


def test_exc_perp_decompose_simple():
    # the opposite simple extends S_0, so only the full opposite arc
    # survives in the perpendicular
    block1, block2 = perp_blocks(Arc(2, 0, 1))
    assert block2 == 0
    members = [x for x in tube.all_arcs(2, 2) if x in tube.tube_universe(2).members(block1)]
    assert sorted((a.socle, a.length) for a in members) == [(1, 2)]


def test_exc_perp_decompose_stack():
    """A length 2 arc in the rank 3 tube splits its perpendicular into
    an orthogonal pair of blocks covering it."""
    e = Arc(3, 1, 2)
    uni = tube.tube_universe(3)
    block1, block2 = (frozenset(uni.members(b)) for b in perp_blocks(e))
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


# ---------------------------------------------------------------------------
# the id-indexed pair table against the set-based closure it replaced

REF_PAIR_KC: dict = {}
REF_PAIR_MID: dict = {}
# one memo per middle for the whole module: the pair-table and the middle
# tests read the same extensions
middle_summands = functools.cache(tube._middle_summands)


@functools.cache
def sampled_middles(a: Arc, b: Arc) -> frozenset:
    """The sampler's middles over the oracle's Ext basis, for arcs of any
    length: extension_middles answers only where Ext^1 has at most one
    class."""
    return frozenset(reference_extension_middles(tube.ext_classes(a, b),
                                                 functools.partial(middle_summands, a, b)))


def reference_pair_kernel_cokernel(a: Arc, b: Arc) -> frozenset:
    key = (a, b)
    if key not in REF_PAIR_KC:
        found = set()
        ra, rb = tube._rep(a), tube._rep(b)
        for f in tube.arc_hom_basis(a, b):
            for rep_kind in (reference_kernel_rep(ra, rb, f), reference_cokernel_rep(ra, rb, f)):
                found.update(decompose(rep_kind))
        REF_PAIR_KC[key] = frozenset(found)
    return REF_PAIR_KC[key]


def reference_pair_middles(a: Arc, b: Arc) -> frozenset:
    key = (a, b)
    if key not in REF_PAIR_MID:
        found = set()
        for summands in sampled_middles(a, b):
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
    """The ids below n * n are the arcs of length at most the rank in the
    order of tube_universe(n), socle-major; a longer arc gets no id."""
    for n in range(1, 7):
        assert [tube.arc_of_id(n, i) for i in range(n * n)] == list(tube.tube_universe(n).objects)
        for a in tube.all_arcs(n, n):
            assert tube.arc_of_id(n, tube.arc_id(a)) == a
        longer = [a for a in tube.all_arcs(n, 3 * n) if a.length > n]
        assert tube._id_mask(longer) == 0


def long_id(a: Arc) -> int:
    """Test-side id of an arc of any length, length-major: the arcs of
    length at most L are exactly the ids below L * rank."""
    return (a.length - 1) * a.rank + a.socle


def arc_of_long_id(n: int, i: int) -> Arc:
    return Arc(n, i % n, i // n + 1)


def long_id_mask(arcs) -> int:
    mask = 0
    for a in arcs:
        mask |= 1 << long_id(a)
    return mask


@functools.cache
def long_pair_row(n: int, ia: int, ib: int) -> int:
    """The pair-table row of a pair of test-side ids (`long_id`), built
    for arcs of any length: the id mask of the kernels and cokernels of
    the Hom basis maps and of the summands of the sampler's middles."""
    a, b = arc_of_long_id(n, ia), arc_of_long_id(n, ib)
    row = 0
    for f in tube.arc_hom_basis(a, b):
        row |= long_id_mask(tube._kernel_and_cokernel(a, b, f))
    for summands in sampled_middles(a, b):
        row |= long_id_mask(summands)
    return row


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_table_matches_reference(n, monkeypatch):
    """Every ordered pair of arcs up to three times the rank: the
    test-side row is the set of summands the reference collects for the
    pair, and on arcs up to the rank the table row is its members of
    length at most the rank.  All read extension middles through one
    memo, because the oracle call is shared code and only the bookkeeping
    around it changed."""
    monkeypatch.setattr(tube, "_middle_summands", middle_summands)
    arcs = tube.all_arcs(n, 3 * n)
    for a, b in itertools.product(arcs, repeat=2):
        want = reference_pair_kernel_cokernel(a, b) | reference_pair_middles(a, b)
        row = long_pair_row(n, long_id(a), long_id(b))
        assert {arc_of_long_id(n, i) for i in tube.bits(row)} == want, (a, b)
        if max(a.length, b.length) <= n:
            short = {tube.arc_of_id(n, i)
                     for i in tube.bits(tube._pair_row(n, tube.arc_id(a), tube.arc_id(b)))}
            assert short == {x for x in want if x.length <= n}, (a, b)


def test_kernels_and_cokernels_are_sub_and_quotient_arcs():
    """Every Hom basis map between arcs up to three times the rank at
    ranks 1-3 and twice the rank at rank 4: its image length is its rank,
    the sum of the ranks of its vertex matrices, and the sub-arc and the
    quotient arc read off that rank are the summands of its kernel and
    cokernel as the general references decompose them."""
    maps = 0
    for n, cap in ((1, 3), (2, 6), (3, 9), (4, 8)):
        for a, b in itertools.product(tube.all_arcs(n, cap), repeat=2):
            ra, rb = tube._rep(a), tube._rep(b)
            for f in tube.arc_hom_basis(a, b):
                maps += 1
                assert tube._image_length(f) == sum(map(rank, f)), (a, b, f)
                want = [arc for rep in (reference_kernel_rep(ra, rb, f),
                                        reference_cokernel_rep(ra, rb, f))
                        for arc, mult in decompose(rep).items() for _ in range(mult)]
                assert tube._kernel_and_cokernel(a, b, f) == want, (a, b, f)
    assert maps == 1867


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rotated_ext_count_matches_unrotated_oracle(n):
    """Every ordered pair of arcs up to three times the rank: the Ext
    count read at the pair rotated to socle 0 is the count of the
    per-pair oracle at the pair itself."""
    arcs = tube.all_arcs(n, 3 * n)
    for a, b in itertools.product(arcs, repeat=2):
        assert tube.ext_dim_via_presentation(a, b) == len(tube.ext_classes(a, b)), (a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rotated_row_matches_direct_pair_row(n):
    """Every ordered pair of ids below n * n: the row read at the rotated
    pair and rotated back is the row the oracle fills for the pair."""
    for ia, ib in itertools.product(range(n * n), repeat=2):
        assert tube._rotated_row(n, ia, ib) == tube._pair_row(n, ia, ib), (ia, ib)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ext_count_fills_once_per_rotation_class(n):
    """Over the arcs of length at most L = 3n, the oracle's Ext path fills
    one Ext count per socle difference and pair of lengths, n * L^2,
    where one per ordered pair would be n^2 * L^2."""
    length = 3 * n
    tube._ext_count.cache_clear()
    for a, b in itertools.product(tube.all_arcs(n, length), repeat=2):
        tube.ext_dim_via_presentation(a, b)
    assert tube._ext_count.cache_info().currsize == n * length * length


def test_presentation_ext_rejects_arcs_of_different_rank():
    """The count is keyed by the first arc's rank, so a second arc of
    another rank is refused, not read at the first one's rank."""
    with pytest.raises(ValueError, match="different rank"):
        tube.ext_dim_via_presentation(Arc(2, 0, 1), Arc(3, 1, 2))


def test_bruteforce_fills_pair_rows_once_per_rotation_class(monkeypatch):
    """The rank-3 scan asks the oracle for the rows of the 27 pairs whose
    first socle is 0, the first ids below 3, not all 81."""
    pair_row, asked = tube._pair_row, set()

    def recording(n, ia, ib):
        asked.add((n, ia, ib))
        return pair_row(n, ia, ib)

    monkeypatch.setattr(tube, "_pair_row", recording)
    tube.enumerate_wide_bruteforce(3)
    assert len(asked) == 27
    assert all(ia < 3 for _, ia, _ in asked)


def generator_subsets(n):
    arcs = tube.all_arcs(n, n)
    return [combo for r in range(len(arcs) + 1) for combo in itertools.combinations(arcs, r)]


def closure_arcs(n: int, gens) -> frozenset:
    """The arcs of the oracle closure of the id mask of gens at rank n."""
    closed = tube.closure_members(n, tube._id_mask(gens))
    return frozenset(tube.arc_of_id(n, i) for i in tube.bits(closed))


@pytest.mark.parametrize("n, sample", [(1, None), (2, None), (3, 60)])
def test_closure_members_matches_reference(n, sample):
    """Every generator subset at ranks 1 and 2 and a fixed sample at rank
    3: closing at the rank gives the arcs of length <= n that the
    reference finds when it closes at n, 2n and 3n."""
    subsets = generator_subsets(n)
    if sample is not None:
        subsets = random.Random(n).sample(subsets, sample)
    for gens in subsets:
        got = closure_arcs(n, gens)
        for cap in (n, 2 * n, 3 * n):
            want = frozenset(a for a in reference_closure_members(gens, cap) if a.length <= n)
            assert got == want, (gens, cap)


def test_closure_reads_no_pair_longer_than_rank(monkeypatch):
    """The closure reads the oracle's pair-table rows only at first socle
    0, the first ids below the rank, so never of an arc longer than the
    rank, and still finds every fingerprint at rank 3."""
    pair_row = tube._pair_row

    def guarded(n, ia, ib):
        if not (ia < n and ib < n * n):
            raise AssertionError(f"pair row read for ids {ia}, {ib} at rank {n}")
        return pair_row(n, ia, ib)

    monkeypatch.setattr(tube, "_pair_row", guarded)
    tube._closure.cache_clear()
    assert tube.enumerate_wide_bruteforce(3) == tube.enumerate_wide(3)
    for s in range(3):
        assert tube.wide_closure([Arc(3, s, 3)]).arcs == {Arc(3, s, 3)}


def reference_pair_row_closure(n: int, gens, cap: int) -> frozenset:
    """Arcs of length <= cap in the wide closure: a naive fixpoint over
    test-side id masks (`long_id`) that ORs the test-side row
    (`long_pair_row`) of every ordered member pair on every pass."""
    capped = (1 << cap * n) - 1
    members = long_id_mask(gens) & capped
    while True:
        ids = list(tube.bits(members))
        found = members
        for ia in ids:
            for ib in ids:
                found |= long_pair_row(n, ia, ib)
        found &= capped
        if found == members:
            return frozenset(arc_of_long_id(n, i) for i in ids)
        members = found


def test_closure_members_matches_pair_row_fixpoint_rank3():
    """Every generator subset at rank 3: closing at the rank gives the
    arcs of length <= 3 of the naive fixpoint closed at 3, 6 and 9."""
    n = 3
    for gens in generator_subsets(n):
        got = closure_arcs(n, gens)
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
# exact extension middles against the sampler they replaced

def scaled_sum_class(h1, h2, coef: int):
    """h1 + coef * h2, for classes given as tuples of per-vertex matrices."""
    return tuple(tuple(tuple(x + coef * y for x, y in zip(r1, r2)) for r1, r2 in zip(m1, m2))
                 for m1, m2 in zip(h1, h2))


def reference_extension_middles(classes, middle):
    """Middles over every basis class and, for Ext of dimension two or
    more, over pairwise sums with coefficients 1 and 2; coefficient 3
    must add nothing, or the sample is reported as not stable."""
    middles = {middle(h) for h in classes}
    if len(classes) >= 2:
        seen_small = set(middles)
        for i, j in itertools.combinations(range(len(classes)), 2):
            for coef in (1, 2):
                seen_small.add(middle(scaled_sum_class(classes[i], classes[j], coef)))
        seen_full = set(seen_small)
        for i, j in itertools.combinations(range(len(classes)), 2):
            seen_full.add(middle(scaled_sum_class(classes[i], classes[j], 3)))
        assert seen_full == seen_small, "extension middle sampling did not stabilize"
        middles = seen_full
    return middles


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extension_middles_match_sampler(n, monkeypatch):
    """Every ordered pair of arcs up to three times the rank: no basis
    class has the split middle, every sampled middle has the total length
    of its ends, and extension_middles gives the sampler's middles where
    Ext^1 has at most one class and raises where it has more."""
    monkeypatch.setattr(tube, "_middle_summands", middle_summands)
    arcs = tube.all_arcs(n, 3 * n)
    for a, b in itertools.product(arcs, repeat=2):
        classes, middle = tube.ext_classes(a, b), functools.partial(middle_summands, a, b)
        mids = sampled_middles(a, b)
        split = tuple(sorted((a, b), key=Arc.sort_key))
        assert all(middle(h) != split for h in classes), (a, b)
        assert all(sum(x.length for x in m) == a.length + b.length for m in mids), (a, b)
        if len(classes) <= 1:
            assert tube.extension_middles(a, b) == mids, (a, b)
        else:
            with pytest.raises(ValueError, match="dimension above one"):
                tube.extension_middles(a, b)


def test_short_pairs_have_at_most_one_hom_map_and_ext_class():
    """Every ordered pair of ids below n * n at ranks 1-6, so of arcs of
    length at most the rank: the oracle finds at most one Hom basis map
    and at most one Ext class, so extension_middles answers on every pair
    the closures read."""
    pairs = 0
    for n in range(1, 7):
        for ia, ib in itertools.product(range(n * n), repeat=2):
            pairs += 1
            a, b = tube.arc_of_id(n, ia), tube.arc_of_id(n, ib)
            assert len(tube.arc_hom_basis(a, b)) <= 1, (a, b)
            assert len(tube.ext_classes(a, b)) <= 1, (a, b)
    assert pairs == 2275


def test_extension_middles_refuses_two_dimensional_ext():
    """The rank-1 arc of length 2 has a two-dimensional Ext^1 with itself,
    where classes that are not multiples of one another may have distinct
    middles."""
    a = Arc(1, 0, 2)
    assert len(tube.ext_classes(a, a)) == 2
    with pytest.raises(ValueError, match="dimension above one"):
        tube.extension_middles(a, a)


def test_scaled_class_shares_its_middle():
    """Every ordered pair of arcs of length at most the rank at ranks 1-6
    with Ext^1 != 0: the class times 2 and times -1 has the middle of the
    class, as extension_middles assumes."""
    pairs = 0
    for n in range(1, 7):
        for a, b in itertools.product(tube.all_arcs(n, n), repeat=2):
            for h in tube.ext_classes(a, b):
                pairs += 1
                mid = tube._middle_summands(a, b, h)
                for coef in (2, -1):
                    scaled = scaled_sum_class(h, h, coef - 1)
                    assert tube._middle_summands(a, b, scaled) == mid, (a, b, coef)
    assert pairs == 994


# ---------------------------------------------------------------------------
# the standard resolution against the truncated presentation it replaced

def reference_presentation(a: Arc, b: Arc):
    """The presentation 0 -> K -> P -> a -> 0 truncated at the arc P of
    length N = len a + len b + rank with the top of a, K its sub-arc of
    length N - len a, and the inclusion of K into P: rep_of_arc numbers
    basis vectors from the socle up, so at every vertex K's basis vectors
    are P's first ones."""
    n = a.rank
    big = a.length + b.length + n
    p_arc = Arc(n, (a.socle + a.length - big) % n, big)
    k_arc = Arc(n, p_arc.socle, big - a.length)
    incl = tuple(tuple(tuple(int(r == c) for c in range(kd)) for r in range(pd))
                 for kd, pd in zip(k_arc.factor_counts(), p_arc.factor_counts()))
    return k_arc, p_arc, incl


@functools.cache
def reference_presentation_ext_classes(a: Arc, b: Arc) -> tuple:
    """Basis of Ext^1(a, b) as maps g : K -> b of the truncated
    presentation: coset representatives of Hom(K, b) modulo the
    restrictions of Hom(P, b)."""
    k_arc, p_arc, incl = reference_presentation(a, b)
    k_hom = tube.arc_hom_basis(k_arc, b)
    restricted = [tuple(map(mat_mul, f, incl)) for f in tube.arc_hom_basis(p_arc, b)]
    # as columns after the restrictions, a basis map is a pivot exactly
    # when it is independent of the maps before it
    cols = [[x for m in f for row in m for x in row] for f in (*restricted, *k_hom)]
    _, pivots = linalg.rref(list(zip(*cols)))
    return tuple(k_hom[c - len(restricted)] for c in pivots if c >= len(restricted))


@functools.cache
def reference_presentation_middle(a: Arc, b: Arc, g) -> tuple:
    """Summands of the middle of the extension of class g : K -> b, the
    pushout of the presentation along g: the cokernel of (incl, -g) from
    K to P + b."""
    k_arc, p_arc, incl = reference_presentation(a, b)
    f = [[*map(list, incl[i]), *([-x for x in row] for row in g[i])] for i in range(a.rank)]
    pb = reference_direct_sum([tube._rep(p_arc), tube._rep(b)])
    parts = decompose(reference_cokernel_rep(tube._rep(k_arc), pb, f))
    return tuple(arc for arc in sorted(parts, key=Arc.sort_key) for _ in range(parts[arc]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ext_matches_truncated_presentation(n):
    """Every ordered pair of arcs up to three times the rank: the standard
    resolution counts as many Ext classes as the truncated presentation
    and, up to rank 3, the sampler finds the same middles over the
    classes of either."""
    for a, b in itertools.product(tube.all_arcs(n, 3 * n), repeat=2):
        classes = reference_presentation_ext_classes(a, b)
        assert tube.ext_dim_via_presentation(a, b) == len(classes), (a, b)
        if n <= 3:
            middle = functools.partial(reference_presentation_middle, a, b)
            assert sampled_middles(a, b) == reference_extension_middles(classes, middle), (a, b)


def test_oracle_builds_no_arc_longer_than_its_inputs(monkeypatch):
    """With the oracle caches cleared before each pair, every ordered pair
    of arcs up to three times the rank at ranks 1-3: the Ext count, the
    middles of the Ext basis classes and, where there is at most one
    class, extension_middles build the representation of no arc longer
    than the longer of the two, where the truncated presentation, which
    trips the same guard, built one of length len a + len b + rank."""
    caches = (tube._rep, tube.ext_classes, tube._ext_count)
    limit = 0

    def guarded(arc):
        if arc.length > limit:
            raise AssertionError(f"representation of {arc} built")
        return rep_of_arc(arc)

    monkeypatch.setattr(nilpotent, "rep_of_arc", guarded)
    for n in (1, 2, 3):
        for a, b in itertools.product(tube.all_arcs(n, 3 * n), repeat=2):
            for cache in caches:
                cache.cache_clear()
            limit = max(a.length, b.length)
            tube.ext_dim_via_presentation(a, b)
            classes = tube.ext_classes(a, b)
            for h in classes:
                tube._middle_summands(a, b, h)
            if len(classes) <= 1:
                tube.extension_middles(a, b)
    with pytest.raises(AssertionError, match="representation of"):
        reference_presentation_ext_classes.__wrapped__(a, b)


# ---------------------------------------------------------------------------
# the Hasse reduction

def reference_inclusion_order(masks):
    """Strict inclusion rows and covers with the reduction written out: a
    set above i covers it unless it lies above another set above i, found
    by ORing the rows of every set above i."""
    held = reference_holders(masks)
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
    posets = [(w, lo, hi, ()) for w, lo, hi in BENCH_INPUTS] + [((1, 1), -2, 3, ("0", "1")),
                                                                 ((2, 6), -2, 3, ())]
    return ([pytest.param(p, id=f"poset-{','.join(map(str, p[0]))}-{len(p[3])}") for p in posets]
            + [pytest.param(n, id=f"tube-enum-{n}") for n in range(1, 6)])


@pytest.mark.parametrize("case", order_inputs())
def test_inclusion_order_matches_reference(case):
    """The lowest-bit walk gives the rows and the cover list, in order, of
    the reduction that ORs every row above, on the node masks of the
    benchmark posets (and of 1,1 with two ordinary points, and of 2,6 at
    its default window, whose rows span 8,783 bits) and on the tube-enum
    lattices of ranks 1 to 5."""
    if isinstance(case, int):
        masks = list(tube.tube_lattice(case))
    else:
        weights, lo, hi, ids = case
        masks = [n.mask for n in build_poset(make_line(weights), lo, hi, ids).nodes]
    assert tube.inclusion_order(masks, tube.holders(masks)) == reference_inclusion_order(masks)


# ---------------------------------------------------------------------------
# the bit-table kernels: holders and level_key

def reference_holders(masks):
    """The holders table ORed one bit at a time into set-wide ints: the
    loop the byte-column transpose replaced."""
    out = collections.defaultdict(int)
    for j, m in enumerate(masks):
        for i in tube.bits(m):
            out[i] |= 1 << j
    return out


# widths around the byte boundaries and one far past them
KERNEL_WIDTHS = (1, 7, 8, 9, 64, 65, 1000)


@st.composite
def mask_lists(draw):
    """Lists of masks below a drawn width, the empty mask and the full
    one drawn often."""
    full = (1 << draw(st.sampled_from(KERNEL_WIDTHS))) - 1
    mask = st.one_of(st.sampled_from((0, full)), st.integers(0, full))
    return draw(st.lists(mask, max_size=40))


def assert_holders_match(masks):
    got, want = tube.holders(iter(masks)), reference_holders(masks)
    assert got == want
    width = max(masks, default=0).bit_length()
    assert [got[i] for i in range(width + 9)] == [want[i] for i in range(width + 9)]


@settings(max_examples=300)
@given(mask_lists())
def test_holders_match_reference_on_drawn_masks(masks):
    """The byte-column transpose gives the one-bit loop's table, and a
    bit held by no set, inside or past the width, reads 0."""
    assert_holders_match(masks)


@pytest.mark.parametrize("masks", [[], [0], [0, 0, 0], [1], [(1 << 8) - 1, 0, 1 << 8],
                                   *([(1 << w) - 1] for w in KERNEL_WIDTHS),
                                   *([1 << (w - 1), 0, 1] for w in KERNEL_WIDTHS)])
def test_holders_match_reference_at_the_edges(masks):
    assert_holders_match(masks)


def assert_level_key_matches(masks):
    for a, b in itertools.product(masks, repeat=2):
        assert (tube.level_key(a) < tube.level_key(b)) == \
            (reference_level_key(a) < reference_level_key(b)), (a, b)
        assert (tube.level_key(a) == tube.level_key(b)) == (a == b), (a, b)
    assert sorted(masks, key=tube.level_key) == sorted(masks, key=reference_level_key)


@settings(max_examples=300)
@given(mask_lists())
def test_level_key_sorts_as_index_tuples_on_drawn_masks(masks):
    """Every pair compares under the string key as under the index
    tuples, and only equal masks tie."""
    assert_level_key_matches(masks)


@pytest.mark.parametrize("width", KERNEL_WIDTHS)
def test_level_key_sorts_as_index_tuples_at_the_edges(width):
    full = (1 << width) - 1
    assert_level_key_matches([0, full, 1, 1 << (width - 1), full ^ 1, full >> 1,
                              full ^ 1 << (width - 1)])


@pytest.mark.parametrize("weights, lo, hi", BENCH_INPUTS)
def test_kernels_match_reference_on_bench_nodes(weights, lo, hi):
    """On the node masks of the five benchmark posets, holders gives the
    one-bit loop's table, and the masks, shuffled, sort into the same
    order under both keys."""
    masks = [n.mask for n in build_poset(make_line(weights), lo, hi).nodes]
    assert_holders_match(masks)
    random.Random(5).shuffle(masks)
    assert sorted(masks, key=tube.level_key) == sorted(masks, key=reference_level_key)
