"""Tube combinatorics: hom/ext oracles, the wide lattice and its maps."""

import itertools

import pytest

from wpline.nilpotent import Arc
from wpline import tube


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


def test_wide_closure_of_two_simples_is_whole():
    f = tube.wide_closure([Arc(2, 0, 1), Arc(2, 1, 1)])
    assert f == tube.whole_fingerprint(2)
    assert not f.exc


def test_wide_closure_idempotent():
    # stability of the cap is exercised separately; a closed member set
    # only needs the fixpoint property here
    for n in (2, 3):
        for f in tube.enumerate_wide(n):
            if not f.arcs:
                continue
            assert tube.wide_closure(f.arcs, check_stability=False) == f


def test_wide_closure_needs_rank_for_empty_input():
    with pytest.raises(ValueError):
        tube.wide_closure(())


def test_perp_pair_swaps_halves_and_inverts():
    for n in (1, 2, 3, 4):
        lattice = tube.enumerate_wide(n)
        for f in lattice:
            g = tube.perp_pair(f)
            assert g in lattice
            assert g.exc != f.exc
            assert tube.perp_pair(g) == f


def test_perp_pair_frozen_examples():
    zero = tube.zero_fingerprint(3)
    assert tube.perp_pair(zero) == tube.whole_fingerprint(3)
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


def test_exc_perp_decompose_simple():
    # the opposite simple extends S_0, so only the full opposite arc
    # survives in the perpendicular
    in_block1, block2 = tube.exc_perp_decompose(Arc(2, 0, 1))
    assert block2 == frozenset()
    members = [x for x in tube.all_arcs(2, 2) if in_block1(x)]
    assert sorted((a.socle, a.length) for a in members) == [(1, 2)]


def test_exc_perp_decompose_stack():
    """A length 2 arc in the rank 3 tube splits its perpendicular into
    an orthogonal pair of blocks covering it."""
    e = Arc(3, 1, 2)
    in_block1, block2 = tube.exc_perp_decompose(e)
    assert sorted((a.socle, a.length) for a in block2) == [(1, 1)]
    perp = [x for x in tube.all_arcs(3, 3)
            if tube.hom_dim(e, x) == 0 and tube.ext_dim(e, x) == 0]
    b1 = [x for x in perp if in_block1(x)]
    rest = [x for x in perp if x not in b1]
    assert set(rest) <= set(block2) | {x for x in tube.all_arcs(3, 3) if not tube.is_exceptional(x)}
    for x in b1:
        for y in block2:
            assert tube.hom_dim(x, y) == 0 and tube.ext_dim(x, y) == 0
            assert tube.hom_dim(y, x) == 0 and tube.ext_dim(y, x) == 0


def test_exc_perp_decompose_rejects_full_arc():
    with pytest.raises(ValueError):
        tube.exc_perp_decompose(Arc(2, 0, 2))
