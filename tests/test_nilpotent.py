"""Nilpotent cyclic-quiver representations: hom bases and decomposition."""

import collections
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wpline import linalg
from wpline.nilpotent import (Arc, NilpRep, _hom_basis_dense,
                              _hom_basis_unionfind, cokernel_rep,
                              composite_rank, decompose, direct_sum, hom_basis,
                              kernel_rep, rep_of_arc)


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
    assert a.tau_inv().tau() == a
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


def test_hom_basis_paths_agree():
    """The union-find fast path and the dense kernel path must produce
    bases of the same dimension for every small pair."""
    for n in (1, 2, 3):
        arcs = all_arcs_raw(n, n + 1)
        for a, b in itertools.product(arcs, repeat=2):
            ra, rb = rep_of_arc(a), rep_of_arc(b)
            assert len(_hom_basis_unionfind(ra, rb)) == len(_hom_basis_dense(ra, rb)), (a, b)


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


def reference_composite_ranks(rep, start, max_steps):
    """Ranks of the composites 0..max_steps vertices down from `start`,
    each built as a matrix product and then ranked."""
    m = linalg.identity(rep.dims[start])
    ranks = [rep.dims[start]]
    v = start
    for _ in range(max_steps):
        m = linalg.mat_mul(rep.map_as_lists(v), m)
        ranks.append(linalg.rank(m))
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
        m = linalg.mat_mul(linalg.mat_mul(bases[(i - 1) % n], rep.map_as_lists(i)),
                           linalg.invert(bases[i]))
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
