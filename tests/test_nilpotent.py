"""Nilpotent cyclic-quiver representations: hom bases and decomposition."""

import collections
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wpline import linalg
from wpline.nilpotent import (Arc, NilpRep, cokernel_rep, composite_rank,
                              decompose, direct_sum, hom_basis, kernel_rep,
                              rep_of_arc)
from test_linalg import rank


def all_arcs_raw(n, max_len):
    return [Arc(n, s, l) for s in range(n) for l in range(1, max_len + 1)]


def hom_dim_rep(a: NilpRep, b: NilpRep) -> int:
    return len(hom_basis(a, b))


def test_arc_basic_structure():
    a = Arc(3, 1, 4)
    assert a.top == 1
    assert a.factors() == [1, 2, 0, 1]
    assert a.factor_counts() == (1, 2, 1)
    assert a.tau() == Arc(3, 0, 4)
    assert Arc(3, 2, 4).tau() == a
    with pytest.raises(ValueError):
        Arc(3, 3, 1)
    with pytest.raises(ValueError):
        Arc(3, 0, 0)


def test_rep_of_arc_dimensions():
    a = Arc(3, 0, 4)
    rep = rep_of_arc(a)
    assert rep.total_dim == 4
    # four factors spread over three vertices, socle vertex doubled
    assert sorted(rep.dims) == [1, 1, 2]


def reference_rep_of_arc(arc: Arc) -> NilpRep:
    """The slot walk: list the basis vectors at each vertex, then send
    each vector to its predecessor through a position table."""
    n = arc.rank
    slots = [[] for _ in range(n)]
    for j in range(arc.length):
        slots[(arc.socle + j) % n].append(j)
    dims = tuple(len(s) for s in slots)
    pos = {}
    for i in range(n):
        for k, j in enumerate(slots[i]):
            pos[j] = (i, k)
    maps = []
    for i in range(n):
        t = (i - 1) % n
        m = [[0] * dims[i] for _ in range(dims[t])]
        for k, j in enumerate(slots[i]):
            if j >= 1:
                ti, tk = pos[j - 1]
                assert ti == t
                m[tk][k] = 1
        maps.append(tuple(map(tuple, m)))
    return NilpRep(n, dims, tuple(maps))


def test_rep_of_arc_matches_slot_walk():
    """Every arc of ranks 1-6 up to length 5n + 2 (497 arcs)."""
    arcs = [a for n in range(1, 7) for a in all_arcs_raw(n, 5 * n + 2)]
    assert len(arcs) == 497
    for a in arcs:
        assert rep_of_arc(a) == reference_rep_of_arc(a), a


def hom_basis_dense(a: NilpRep, b: NilpRep):
    """Basis of the morphism space as the nullspace of the commuting
    equations, for maps of any shape: the reference for hom_basis."""
    n = a.rank
    offsets = []
    total = 0
    for i in range(n):
        offsets.append(total)
        total += b.dims[i] * a.dims[i]

    def vindex(i, r, c):
        return offsets[i] + r * a.dims[i] + c

    rows = []
    for i in range(n):
        t = (i - 1) % n
        for rp in range(b.dims[t]):
            for c in range(a.dims[i]):
                row = [0] * total
                for k in range(a.dims[t]):
                    if a.maps[i][k][c] != 0:
                        row[vindex(t, rp, k)] += a.maps[i][k][c]
                for r in range(b.dims[i]):
                    if b.maps[i][rp][r] != 0:
                        row[vindex(i, r, c)] -= b.maps[i][rp][r]
                if any(x != 0 for x in row):
                    rows.append(row)
    return [tuple(tuple(tuple(v[vindex(i, r, c)] for c in range(a.dims[i]))
                        for r in range(b.dims[i])) for i in range(n))
            for v in linalg.nullspace(rows, total)]


def test_hom_basis_paths_agree():
    """The union-find basis and the dense nullspace basis have the same
    dimension for every small pair."""
    for n in (1, 2, 3):
        arcs = all_arcs_raw(n, n + 1)
        for a, b in itertools.product(arcs, repeat=2):
            ra, rb = rep_of_arc(a), rep_of_arc(b)
            assert len(hom_basis(ra, rb)) == len(hom_basis_dense(ra, rb)), (a, b)


def test_hom_basis_rejects_dense_maps():
    """A map with an entry other than 0 and 1 is no subpermutation;
    the dense reference still handles it."""
    dense = NilpRep(2, (1, 1), (((2,),), ((0,),)))
    simple = rep_of_arc(Arc(2, 0, 1))
    with pytest.raises(ValueError):
        hom_basis(dense, simple)
    assert len(hom_basis_dense(dense, simple)) == 1


def test_hom_dim_additive_on_sums():
    a = rep_of_arc(Arc(2, 0, 1))
    b = rep_of_arc(Arc(2, 1, 2))
    s = direct_sum([a, b])
    c = rep_of_arc(Arc(2, 0, 2))
    assert hom_dim_rep(s, c) == hom_dim_rep(a, c) + hom_dim_rep(b, c)
    assert hom_dim_rep(c, s) == hom_dim_rep(c, a) + hom_dim_rep(c, b)


def test_decompose_round_trip():
    for n in (2, 3):
        arcs = all_arcs_raw(n, n)
        for picked in itertools.combinations_with_replacement(arcs, 2):
            rep = direct_sum([rep_of_arc(a) for a in picked])
            found = decompose(rep)
            expected = {}
            for a in picked:
                expected[a] = expected.get(a, 0) + 1
            assert found == expected, picked


def test_decompose_single_arcs():
    for n in (1, 2, 3, 4):
        for a in all_arcs_raw(n, n + 2):
            assert decompose(rep_of_arc(a)) == {a: 1}


def test_kernel_and_cokernel_of_socle_inclusion():
    # the unique map S_0 -> M(0,2) in the rank 3 tube is injective with
    # cokernel the simple at index 1
    src = rep_of_arc(Arc(3, 0, 1))
    dst = rep_of_arc(Arc(3, 0, 2))
    basis = hom_basis(src, dst)
    assert len(basis) == 1
    f = basis[0]
    ker = kernel_rep(src, dst, f)
    assert ker.total_dim == 0
    coker = cokernel_rep(src, dst, f)
    assert decompose(coker) == {Arc(3, 1, 1): 1}


def test_kernel_of_full_arc_quotient():
    # the surjection M(0,2) -> S_1 in rank 2 has kernel S_0
    src = rep_of_arc(Arc(2, 0, 2))
    dst = rep_of_arc(Arc(2, 1, 1))
    basis = hom_basis(src, dst)
    assert len(basis) == 1
    f = basis[0]
    assert decompose(kernel_rep(src, dst, f)) == {Arc(2, 0, 1): 1}
    assert cokernel_rep(src, dst, f).total_dim == 0


def test_composite_rank_nilpotence():
    rep = rep_of_arc(Arc(3, 0, 5))
    assert composite_rank(rep, 0, 0) == rep.dims[0]
    for i in range(3):
        assert composite_rank(rep, i, rep.total_dim) == 0


def test_decompose_rejects_non_nilpotent():
    rep = NilpRep(1, (1,), (((1,),),))
    with pytest.raises(ValueError):
        decompose(rep)


# ---------------------------------------------------------------------------
# property test: the oracle on dense rational bases


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def invert(a):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = linalg.rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def reference_composite_ranks(rep, start, max_steps):
    """Ranks of the composites 0..max_steps vertices down from `start`,
    each built as a matrix product and then ranked."""
    m = identity(rep.dims[start])
    ranks = [rep.dims[start]]
    v = start
    for _ in range(max_steps):
        m = linalg.mat_mul(rep.maps[v], m)
        ranks.append(rank(m))
        v = (v - 1) % rep.rank
    return ranks


def cycle_rep(n):
    """One-dimensional at every vertex with identity maps: the composite
    around the cycle is 1, so this is not nilpotent."""
    return NilpRep(n, (1,) * n, tuple(((Fraction(1),),) for _ in range(n)))


@st.composite
def unimodular(draw, d):
    """A dense integer matrix of determinant 1: unit lower times unit upper."""
    entry = st.integers(-2, 2)
    low = [[1 if r == c else draw(entry) if c < r else 0 for c in range(d)]
           for r in range(d)]
    up = [[1 if r == c else draw(entry) if c > r else 0 for c in range(d)]
          for r in range(d)]
    return linalg.mat_mul(low, up)


def conjugate(rep, bases):
    """Same representation in new bases: map i becomes P_{i-1} M_i P_i^-1."""
    n = rep.rank
    maps = []
    for i in range(n):
        m = linalg.mat_mul(linalg.mat_mul(bases[(i - 1) % n], rep.maps[i]),
                           invert(bases[i]))
        maps.append(tuple(tuple(Fraction(x) for x in row) for row in m))
    return NilpRep(n, rep.dims, tuple(maps))


@st.composite
def conjugated_sums(draw):
    n = draw(st.integers(1, 4))
    arcs = draw(st.lists(st.builds(Arc, st.just(n), st.integers(0, n - 1),
                                   st.integers(1, n + 2)),
                         min_size=1, max_size=3))
    extra = [cycle_rep(n)] if draw(st.booleans()) else []
    rep = direct_sum([rep_of_arc(a) for a in arcs] + extra)
    bases = [draw(unimodular(d)) for d in rep.dims]
    return arcs, bool(extra), conjugate(rep, bases)


@settings(max_examples=60)
@given(conjugated_sums())
def test_decompose_survives_change_of_basis(case):
    """Dense rational maps, not only 0/1 ones: decompose finds the summands,
    composite_rank agrees with the product-then-rank definition, and a
    non-nilpotent summand is still rejected."""
    arcs, cyclic, rep = case
    max_steps = rep.total_dim + rep.rank
    for start in range(rep.rank):
        want = reference_composite_ranks(rep, start, max_steps)
        got = [composite_rank(rep, start, steps) for steps in range(max_steps + 1)]
        assert got == want, start
    if cyclic:
        with pytest.raises(ValueError):
            decompose(rep)
    else:
        assert decompose(rep) == dict(collections.Counter(arcs))
