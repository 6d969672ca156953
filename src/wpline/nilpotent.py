"""Nilpotent representations of a cyclic quiver over the rationals.

This is the linear-algebra oracle behind the tube combinatorics.  A
representation places a vector space at each of n cyclically ordered
vertices with a map from vertex i down to vertex i-1; the composite
around the cycle must be nilpotent.  Indecomposables are "arcs": a socle
vertex and a length.  Morphism spaces, kernels, cokernels, pushouts and
direct-summand decompositions are all computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg


@dataclass(frozen=True)
class Arc:
    """Indecomposable with socle vertex `socle` (mod rank) and `length` >= 1.

    Composition factors from the socle upward are the simples at
    socle, socle+1, ..., socle+length-1.
    """

    rank: int
    socle: int
    length: int

    def __post_init__(self):
        if self.rank < 1 or self.length < 1:
            raise ValueError("rank and length must be positive")
        if not 0 <= self.socle < self.rank:
            raise ValueError("socle must be a vertex residue")

    @property
    def top(self) -> int:
        return (self.socle + self.length - 1) % self.rank

    def factors(self):
        """Multiset of composition-factor vertices, socle first."""
        return [(self.socle + j) % self.rank for j in range(self.length)]

    def factor_counts(self) -> tuple[int, ...]:
        counts = [0] * self.rank
        for v in self.factors():
            counts[v] += 1
        return tuple(counts)

    def tau(self) -> "Arc":
        return Arc(self.rank, (self.socle - 1) % self.rank, self.length)

    def tau_inv(self) -> "Arc":
        return Arc(self.rank, (self.socle + 1) % self.rank, self.length)

    def sort_key(self):
        return (self.socle, self.length)


@dataclass(frozen=True)
class NilpRep:
    """dims[i] is the dimension at vertex i, maps[i] the matrix from
    vertex i to vertex i-1 (rows indexed by the target space)."""

    rank: int
    dims: tuple[int, ...]
    maps: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def map_as_lists(self, i):
        return [list(row) for row in self.maps[i]]


def _freeze(matrix):
    return tuple(tuple(Fraction(x) for x in row) for row in matrix)


def _freeze_maps(maps):
    return tuple(_freeze(m) for m in maps)


def rep_of_arc(arc: Arc) -> NilpRep:
    """Canonical representation of an arc.

    Basis vector j (0 <= j < length) sits at vertex socle+j and is sent
    to vector j-1 by the maps; vector 0 spans the socle.
    """
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
        maps.append(m)
    return NilpRep(n, dims, _freeze_maps(maps))


def direct_sum(reps):
    reps = list(reps)
    if not reps:
        raise ValueError("empty direct sum")
    n = reps[0].rank
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(n))
    maps = []
    for i in range(n):
        t = (i - 1) % n
        m = [[Fraction(0)] * dims[i] for _ in range(dims[t])]
        roff, coff = 0, 0
        for r in reps:
            for a in range(r.dims[t]):
                for b in range(r.dims[i]):
                    m[roff + a][coff + b] = r.maps[i][a][b]
            roff += r.dims[t]
            coff += r.dims[i]
        maps.append(m)
    return NilpRep(n, dims, _freeze_maps(maps))


def _is_subpermutation(rep) -> bool:
    for m in rep.maps:
        for row in m:
            if sum(1 for x in row if x != 0) > 1 or any(x not in (0, 1) for x in row):
                return False
        for c in range(len(m[0]) if m else 0):
            if sum(1 for row in m if row[c] != 0) > 1:
                return False
    return True


def _hom_basis_unionfind(a: NilpRep, b: NilpRep):
    # Each commuting constraint between subpermutation maps identifies two
    # entries of the morphism or forces one to zero, so components of a
    # union-find graph give the basis directly.
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
        mats = [[[Fraction(0)] * a.dims[i] for _ in range(b.dims[i])] for i in range(n)]
        for (i, r, c) in comps[root]:
            mats[i][r][c] = Fraction(1)
        basis.append(tuple(_freeze(m) for m in mats))
    return basis


def _hom_basis_dense(a: NilpRep, b: NilpRep):
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
                row = [Fraction(0)] * total
                for k in range(a.dims[t]):
                    if a.maps[i][k][c] != 0:
                        row[vindex(t, rp, k)] += a.maps[i][k][c]
                for r in range(b.dims[i]):
                    if b.maps[i][rp][r] != 0:
                        row[vindex(i, r, c)] -= b.maps[i][rp][r]
                if any(x != 0 for x in row):
                    rows.append(row)
    basis_vecs = linalg.nullspace(rows, total)
    basis = []
    for v in basis_vecs:
        mats = []
        for i in range(n):
            m = [[v[vindex(i, r, c)] for c in range(a.dims[i])] for r in range(b.dims[i])]
            mats.append(m)
        basis.append(tuple(_freeze(m) for m in mats))
    return basis


def hom_basis(a: NilpRep, b: NilpRep):
    """Basis of the morphism space, each morphism a tuple of matrices."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    if _is_subpermutation(a) and _is_subpermutation(b):
        return _hom_basis_unionfind(a, b)
    return _hom_basis_dense(a, b)


def kernel_rep(a: NilpRep, b: NilpRep, f) -> NilpRep:
    """Kernel of a morphism f: a -> b with its induced maps."""
    n = a.rank
    bases = []
    for i in range(n):
        rows = [list(r) for r in f[i]]
        bases.append(linalg.nullspace(rows, a.dims[i]))
    dims = tuple(len(bs) for bs in bases)
    maps = []
    for i in range(n):
        t = (i - 1) % n
        m = [[Fraction(0)] * dims[i] for _ in range(dims[t])]
        cols_t = [[bases[t][k][r] for k in range(dims[t])] for r in range(a.dims[t])]
        col_vectors = [[cols_t[r][k] for r in range(a.dims[t])] for k in range(dims[t])]
        for j, v in enumerate(bases[i]):
            img = linalg.mat_vec(a.map_as_lists(i), v)
            coords = linalg.solve(col_vectors, img) if dims[t] else ([] if all(x == 0 for x in img) else None)
            if coords is None:
                raise AssertionError("kernel is not a subrepresentation")
            for k in range(dims[t]):
                m[k][j] = coords[k]
        maps.append(m)
    return NilpRep(n, dims, _freeze_maps(maps))


def cokernel_rep(a: NilpRep, b: NilpRep, f) -> NilpRep:
    """Cokernel of f: a -> b; the quotient keeps the non-pivot coordinates."""
    n = a.rank
    projs = []
    keeps = []
    for i in range(n):
        image_rows = []
        for c in range(a.dims[i]):
            image_rows.append([f[i][r][c] for r in range(b.dims[i])])
        red, pivots = linalg.rref(image_rows)
        red = red[:len(pivots)]
        keep = [c for c in range(b.dims[i]) if c not in pivots]
        keeps.append(keep)

        def project(vec, red=red, pivots=pivots, keep=keep):
            v = [Fraction(x) for x in vec]
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
        m = [[Fraction(0)] * dims[i] for _ in range(dims[t])]
        for j, src in enumerate(keeps[i]):
            img = [row[src] for row in b.maps[i]]
            for k, x in enumerate(projs[t](img)):
                m[k][j] = x
        maps.append(m)
    return NilpRep(n, dims, _freeze_maps(maps))


def pushout_middle(k: NilpRep, p: NilpRep, incl, b: NilpRep, g) -> NilpRep:
    """Middle term of the extension induced by pushing 0 -> k -> p out
    along g: k -> b, computed as the cokernel of k -> p + b."""
    pb = direct_sum([p, b])
    f = []
    for i in range(k.rank):
        rows = []
        for r in range(p.dims[i]):
            rows.append([incl[i][r][c] for c in range(k.dims[i])])
        for r in range(b.dims[i]):
            rows.append([-g[i][r][c] for c in range(k.dims[i])])
        f.append(rows)
    return cokernel_rep(k, pb, f)


def _image_ranks(rep: NilpRep, start: int, limit: int) -> list:
    """Ranks of the composites 0, 1, ..., `limit` vertices down from
    `start`, cut after the first 0 (every later composite is 0 too).
    No composite is formed: a reduced basis of its image is pushed
    through one structure map per step."""
    d = rep.dims[start]
    basis = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
    ranks = [d]
    v = start
    while basis and len(ranks) <= limit:
        image = [[sum(x * y for x, y in zip(row, vec) if x and y) for row in rep.maps[v]]
                 for vec in basis]
        red, pivots = linalg.rref(image)
        basis = red[:len(pivots)]
        ranks.append(len(basis))
        v = (v - 1) % rep.rank
    return ranks


def composite_rank(rep: NilpRep, start: int, steps: int) -> int:
    """Rank of the composite map going `steps` vertices down from `start`."""
    ranks = _image_ranks(rep, start, steps)
    return ranks[steps] if steps < len(ranks) else 0


def decompose(rep: NilpRep):
    """Multiset of arcs (dict Arc -> multiplicity) of a nilpotent rep.

    Multiplicities come from ranks of the composite downward maps, the
    cyclic analogue of reading Jordan block sizes off rank differences.
    Each start vertex is walked once (`_image_ranks`): the image of the
    composite is kept as a reduced basis and pushed one map further per
    step, and the walk stops at the first empty image.  A walk that still
    has a nonzero image after `total_dim` steps means the representation
    is not nilpotent, and ValueError is raised.
    """
    n = rep.rank
    total = rep.total_dim
    if total == 0:
        return {}
    rho = {}
    for i in range(n):
        ranks = _image_ranks(rep, i, total)
        if len(ranks) > total and ranks[total] != 0:
            raise ValueError("representation is not nilpotent")
        for ell in range(total + 2):
            rho[(i, ell)] = ranks[ell] if ell < len(ranks) else 0
    result = {}
    for s in range(n):
        for length in range(1, total + 1):
            top = (s + length - 1) % n
            above = (top + 1) % n
            m = (rho[(top, length - 1)] - rho[(top, length)]
                 - rho[(above, length)] + rho[(above, length + 1)])
            if m < 0:
                raise AssertionError("negative multiplicity in decomposition")
            if m:
                result[Arc(n, s, length)] = m
    if sum(arc.length * mult for arc, mult in result.items()) != total:
        raise AssertionError("decomposition does not exhaust the dimension")
    return result
