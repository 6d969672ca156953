"""Nilpotent cyclic-quiver representations: hom bases and decomposition."""

import collections
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wpline import linalg, tube
from wpline.nilpotent import (Arc, NilpRep, _freeze_maps, _image_ranks, decompose, ext_basis,
                              hom_basis, pushout_middle, rep_of_arc)
from test_linalg import mat_mul, rank, reference_solve


def all_arcs_raw(n, max_len):
    return [Arc(n, s, l) for s in range(n) for l in range(1, max_len + 1)]


def reference_direct_sum(reps):
    """Block-diagonal direct sum of representations of one rank: the
    summands' maps on the diagonal, in order."""
    reps = list(reps)
    if not reps:
        raise ValueError("empty direct sum")
    n = reps[0].rank
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(n))
    maps = []
    for i in range(n):
        t = (i - 1) % n
        m = [[0] * dims[i] for _ in range(dims[t])]
        roff, coff = 0, 0
        for r in reps:
            for a in range(r.dims[t]):
                for b in range(r.dims[i]):
                    m[roff + a][coff + b] = r.maps[i][a][b]
            roff += r.dims[t]
            coff += r.dims[i]
        maps.append(m)
    return NilpRep(n, dims, _freeze_maps(maps))


def hom_dim_rep(a: NilpRep, b: NilpRep) -> int:
    return len(hom_basis(a, b))


def tau(a: Arc) -> Arc:
    """Auslander-Reiten translate of an arc: its socle one step back."""
    return Arc(a.rank, (a.socle - 1) % a.rank, a.length)


def composite_rank(rep: NilpRep, start: int, steps: int) -> int:
    """Rank of the composite map going `steps` vertices down from `start`."""
    ranks = _image_ranks(rep, start, steps)
    return ranks[steps] if steps < len(ranks) else 0


def test_arc_basic_structure():
    a = Arc(3, 1, 4)
    assert a.top == 1
    assert a.factors() == [1, 2, 0, 1]
    assert a.factor_counts() == (1, 2, 1)
    assert tau(a) == Arc(3, 0, 4)
    assert tau(Arc(3, 2, 4)) == a
    with pytest.raises(ValueError):
        Arc(3, 3, 1)
    with pytest.raises(ValueError):
        Arc(3, 0, 0)


def test_multiplicity_counts_factors():
    """The closed multiplicity equals the count in the factor list at
    every vertex v from -n to 2n - 1 (taken mod n) of every arc of ranks
    1-6 up to length 3n; factor_counts reads it."""
    for n in range(1, 7):
        for a in tube.all_arcs(n, 3 * n):
            factors = a.factors()
            assert a.factor_counts() == tuple(factors.count(v) for v in range(n)), a
            for v in range(-n, 2 * n):
                assert a.multiplicity(v) == factors.count(v % n), (a, v)


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


def is_subpermutation(rep) -> bool:
    for m in rep.maps:
        for row in m:
            if sum(1 for x in row if x != 0) > 1 or any(x not in (0, 1) for x in row):
                return False
        for c in range(len(m[0]) if m else 0):
            if sum(1 for row in m if row[c] != 0) > 1:
                return False
    return True


def reference_hom_basis(a: NilpRep, b: NilpRep):
    """The union-find basis, for subpermutation maps (at most one entry,
    a 1, per row and per column), as direct sums of arcs have: each
    commuting constraint identifies two entries of the morphism or forces
    one to zero, so the components of a union-find graph give the basis
    directly."""
    assert a.rank == b.rank and is_subpermutation(a) and is_subpermutation(b)
    n = a.rank
    var = {}
    for i in range(n):
        for r in range(b.dims[i]):
            for c in range(a.dims[i]):
                var[(i, r, c)] = len(var)
    zero = len(var)
    parent = list(range(len(var) + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for i in range(n):
        t = (i - 1) % n
        acol = [None] * a.dims[i]
        for rr in range(a.dims[t]):
            for cc in range(a.dims[i]):
                if a.maps[i][rr][cc] != 0:
                    acol[cc] = rr
        bpre = [None] * b.dims[t]
        for rr in range(b.dims[t]):
            for cc in range(b.dims[i]):
                if b.maps[i][rr][cc] != 0:
                    bpre[rr] = cc
        for rp in range(b.dims[t]):
            for c in range(a.dims[i]):
                left = var[(t, rp, acol[c])] if acol[c] is not None else zero
                right = var[(i, bpre[rp], c)] if bpre[rp] is not None else zero
                union(left, right)

    comps = {}
    zroot = find(zero)
    for key, idx in var.items():
        root = find(idx)
        if root != zroot:
            comps.setdefault(root, []).append(key)
    basis = []
    for root in sorted(comps, key=lambda r: sorted(comps[r])):
        mats = [[[0] * a.dims[i] for _ in range(b.dims[i])] for i in range(n)]
        for (i, r, c) in comps[root]:
            mats[i][r][c] = 1
        basis.append(tuple(tuple(map(tuple, m)) for m in mats))
    return basis


def test_hom_basis_paths_agree():
    """The nullspace basis is the union-find basis, as a set of maps, on
    every pair of arcs of ranks 1-4 up to length 3n + 1 (3816 pairs)."""
    pairs = 0
    for n in (1, 2, 3, 4):
        arcs = all_arcs_raw(n, 3 * n + 1)
        for a, b in itertools.product(arcs, repeat=2):
            ra, rb = rep_of_arc(a), rep_of_arc(b)
            got, want = hom_basis(ra, rb), reference_hom_basis(ra, rb)
            assert len(got) == len(set(got)) and set(got) == set(want), (a, b)
            pairs += 1
    assert pairs == 3816


def test_hom_basis_handles_dense_maps():
    """A map with an entry other than 0 and 1 is no subpermutation, and
    the nullspace still gives the commuting maps: into the simple at 0,
    the one map that is 1 at vertex 0."""
    dense = NilpRep(2, (1, 1), (((2,),), ((0,),)))
    simple = rep_of_arc(Arc(2, 0, 1))
    assert not is_subpermutation(dense)
    assert hom_basis(dense, simple) == [(((1,),), ())]


def euler_form(a: NilpRep, b: NilpRep) -> int:
    """sum a_i b_i - sum a_i b_{i-1} over the dimension vectors."""
    return sum(a.dims[i] * (b.dims[i] - b.dims[i - 1]) for i in range(a.rank))


def test_hom_and_ext_come_from_one_map():
    """Hom and Ext are the kernel and the cokernel of one map, so their
    dimensions differ by the Euler form: on every pair of arcs of ranks
    1-4 up to length 3n, and on every pair of direct sums of two arcs up
    to length n at ranks 1-3, where Ext also adds up over the summands."""
    for n in (1, 2, 3, 4):
        for a, b in itertools.product(all_arcs_raw(n, 3 * n), repeat=2):
            ra, rb = rep_of_arc(a), rep_of_arc(b)
            assert len(hom_basis(ra, rb)) - len(ext_basis(ra, rb)) == euler_form(ra, rb), (a, b)
    for n in (1, 2, 3):
        sums = list(itertools.combinations_with_replacement(all_arcs_raw(n, n), 2))
        for a, b in itertools.product(sums, repeat=2):
            ra, rb = (reference_direct_sum(map(rep_of_arc, x)) for x in (a, b))
            ext = len(ext_basis(ra, rb))
            assert len(hom_basis(ra, rb)) - ext == euler_form(ra, rb), (a, b)
            assert ext == sum(tube.ext_dim(x, y) for x in a for y in b), (a, b)


def test_hom_dim_additive_on_sums():
    a = rep_of_arc(Arc(2, 0, 1))
    b = rep_of_arc(Arc(2, 1, 2))
    s = reference_direct_sum([a, b])
    c = rep_of_arc(Arc(2, 0, 2))
    assert hom_dim_rep(s, c) == hom_dim_rep(a, c) + hom_dim_rep(b, c)
    assert hom_dim_rep(c, s) == hom_dim_rep(c, a) + hom_dim_rep(c, b)


def reference_pushout_middle(a: NilpRep, b: NilpRep, h) -> NilpRep:
    """The direct sum b + a with the class h written into its upper right
    blocks: the middle as it was built before its blocks were written
    directly."""
    mid = reference_direct_sum([b, a])
    maps = [[list(row) for row in m] for m in mid.maps]
    for i, hi in enumerate(h):
        for r, row in enumerate(hi):
            maps[i][r][b.dims[i]:] = row
    return NilpRep(mid.rank, mid.dims, _freeze_maps(maps))


def test_pushout_middle_matches_block_reference():
    """Every Ext basis class between arcs up to twice the rank at ranks
    1-3: the middle written block by block is the direct sum with the
    class in its corner, entry for entry."""
    classes = 0
    for n in (1, 2, 3):
        for a, b in itertools.product(all_arcs_raw(n, 2 * n), repeat=2):
            ra, rb = rep_of_arc(a), rep_of_arc(b)
            for h in ext_basis(ra, rb):
                classes += 1
                assert pushout_middle(ra, rb, h) == reference_pushout_middle(ra, rb, h), (a, b)
    assert classes


def test_decompose_round_trip():
    for n in (2, 3):
        arcs = all_arcs_raw(n, n)
        for picked in itertools.combinations_with_replacement(arcs, 2):
            rep = reference_direct_sum([rep_of_arc(a) for a in picked])
            found = decompose(rep)
            expected = {}
            for a in picked:
                expected[a] = expected.get(a, 0) + 1
            assert found == expected, picked


def test_decompose_single_arcs():
    for n in (1, 2, 3, 4):
        for a in all_arcs_raw(n, n + 2):
            assert decompose(rep_of_arc(a)) == {a: 1}


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def reference_kernel_rep(a: NilpRep, b: NilpRep, f) -> NilpRep:
    """Kernel of a morphism f: a -> b with its induced maps, for maps of
    any shape: the structure maps solved on the kernel bases."""
    n = a.rank
    bases = [linalg.nullspace([list(r) for r in f[i]], a.dims[i]) for i in range(n)]
    dims = tuple(len(bs) for bs in bases)
    maps = []
    for i in range(n):
        t = (i - 1) % n
        m = [[0] * dims[i] for _ in range(dims[t])]
        for j, v in enumerate(bases[i]):
            coords = reference_solve(bases[t], mat_vec(a.maps[i], v))
            assert coords is not None, "kernel is not a subrepresentation"
            for k in range(dims[t]):
                m[k][j] = coords[k]
        maps.append(m)
    return NilpRep(n, dims, _freeze_maps(maps))


def reference_cokernel_rep(a: NilpRep, b: NilpRep, f) -> NilpRep:
    """Cokernel of f: a -> b, for maps of any shape; the quotient keeps
    the non-pivot coordinates of the image at each vertex."""
    n = a.rank
    projs = []
    keeps = []
    for i in range(n):
        image_rows = [[f[i][r][c] for r in range(b.dims[i])] for c in range(a.dims[i])]
        red, pivots = linalg.rref(image_rows)
        red = red[:len(pivots)]
        keep = [c for c in range(b.dims[i]) if c not in pivots]
        keeps.append(keep)

        def project(vec, red=red, pivots=pivots, keep=keep):
            v = list(vec)
            for r, p in enumerate(pivots):
                if v[p] != 0:
                    coef = v[p]
                    v = [x - coef * y for x, y in zip(v, red[r])]
            return [v[c] for c in keep]

        projs.append(project)
    dims = tuple(len(k) for k in keeps)
    maps = []
    for i in range(n):
        t = (i - 1) % n
        m = [[0] * dims[i] for _ in range(dims[t])]
        for j, src in enumerate(keeps[i]):
            img = [row[src] for row in b.maps[i]]
            for k, x in enumerate(projs[t](img)):
                m[k][j] = x
        maps.append(m)
    return NilpRep(n, dims, _freeze_maps(maps))


def test_kernel_and_cokernel_of_socle_inclusion():
    # the unique map S_0 -> M(0,2) in the rank 3 tube is injective with
    # cokernel the simple at index 1
    src = rep_of_arc(Arc(3, 0, 1))
    dst = rep_of_arc(Arc(3, 0, 2))
    basis = hom_basis(src, dst)
    assert len(basis) == 1
    f = basis[0]
    ker = reference_kernel_rep(src, dst, f)
    assert ker.total_dim == 0
    coker = reference_cokernel_rep(src, dst, f)
    assert decompose(coker) == {Arc(3, 1, 1): 1}


def test_kernel_of_full_arc_quotient():
    # the surjection M(0,2) -> S_1 in rank 2 has kernel S_0
    src = rep_of_arc(Arc(2, 0, 2))
    dst = rep_of_arc(Arc(2, 1, 1))
    basis = hom_basis(src, dst)
    assert len(basis) == 1
    f = basis[0]
    assert decompose(reference_kernel_rep(src, dst, f)) == {Arc(2, 0, 1): 1}
    assert reference_cokernel_rep(src, dst, f).total_dim == 0


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
        m = mat_mul(rep.maps[v], m)
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
    return mat_mul(low, up)


def conjugate(rep, bases):
    """Same representation in new bases: map i becomes P_{i-1} M_i P_i^-1."""
    n = rep.rank
    maps = []
    for i in range(n):
        m = mat_mul(mat_mul(bases[(i - 1) % n], rep.maps[i]),
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
    rep = reference_direct_sum([rep_of_arc(a) for a in arcs] + extra)
    bases = [draw(unimodular(d)) for d in rep.dims]
    return arcs, bool(extra), conjugate(rep, bases)


@settings(max_examples=30)
@given(conjugated_sums(), st.data())
def test_hom_basis_counts_summands(case, data):
    """Dense rational maps: the Hom basis from the sum into an arc, and
    from the arc into the sum, has one map per winding of each summand.
    A non-nilpotent summand adds none: the image of a map between it and
    the arc would be nilpotent and carry an invertible cycle."""
    arcs, _, rep = case
    n = rep.rank
    b = data.draw(st.builds(Arc, st.just(n), st.integers(0, n - 1), st.integers(1, n + 2)))
    rb = rep_of_arc(b)
    assert len(hom_basis(rep, rb)) == sum(tube.hom_dim(a, b) for a in arcs)
    assert len(hom_basis(rb, rep)) == sum(tube.hom_dim(b, a) for a in arcs)


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
