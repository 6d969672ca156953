"""Nilpotent representations of a cyclic quiver over the rationals.

This is the linear-algebra oracle behind the tube combinatorics.  A
representation places a vector space at each of n cyclically ordered
vertices with a map from vertex i down to vertex i-1; the composite
around the cycle must be nilpotent.  Indecomposables are "arcs": a socle
vertex and a length.  Morphism and extension spaces (the kernel and
the cokernel of one commuting map, from Ringel's standard resolution),
extension middles and direct-summand decompositions are all computed
exactly, for representations of any shape: matrix entries are `int`
while they stay integral and `Fraction` once a division makes them
rational (see linalg), never `float`.  This is the one module that
uses linalg: `rref` and `nullspace`, no matrix product.  The kernel and
the cokernel of a map between arcs need no representation: they are a
sub-arc and a quotient arc (tube._pair_row).
"""

from __future__ import annotations

from . import linalg
from ._record import Record


class Arc(Record):
    """Indecomposable with socle vertex `socle` (mod rank) and `length` >= 1.

    Composition factors from the socle upward are the simples at
    socle, socle+1, ..., socle+length-1.
    """

    __slots__ = _fields = ("rank", "socle", "length")

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

    def multiplicity(self, v: int) -> int:
        """How often the simple at vertex v (taken mod rank) is a
        composition factor: once per full turn, plus once when v lies
        among the first length mod rank vertices from the socle up."""
        n = self.rank
        return self.length // n + ((v - self.socle) % n < self.length % n)

    def factor_counts(self) -> tuple[int, ...]:
        return tuple(map(self.multiplicity, range(self.rank)))

    def sort_key(self):
        return (self.socle, self.length)


class NilpRep(Record):
    """dims[i] is the dimension at vertex i, maps[i] the matrix from
    vertex i to vertex i-1 (rows indexed by the target space).  Entries
    are exact rationals, `int` or `Fraction`."""

    _fields = ("rank", "dims", "maps")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def _freeze_maps(maps):
    return tuple(tuple(map(tuple, m)) for m in maps)


def rep_of_arc(arc: Arc) -> NilpRep:
    """Canonical representation of an arc.

    Basis vector j (0 <= j < length) sits at vertex (socle + j) mod rank,
    as the (j // rank)-th vector there, and is sent to vector j - 1, the
    ((j - 1) // rank)-th vector of the vertex below; vector 0 spans the
    socle.
    """
    n, dims = arc.rank, arc.factor_counts()
    maps = [[[0] * dims[i] for _ in range(dims[(i - 1) % n])] for i in range(n)]
    for j in range(1, arc.length):
        maps[(arc.socle + j) % n][(j - 1) // n][j // n] = 1
    return NilpRep(n, dims, _freeze_maps(maps))


def _commuting_map(a: NilpRep, b: NilpRep):
    """Matrix of d(f)_i = f_{i-1} a_i - b_i f_i, from the tuples f of
    matrices f_i : a_i -> b_i to the tuples of matrices a_i -> b_{i-1}:
    one column per entry of the f_i and one row per entry of the targets,
    each in vertex, row, column order (see _unflatten)."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    n = a.rank
    offsets = [0]
    for i in range(n):
        offsets.append(offsets[-1] + b.dims[i] * a.dims[i])
    rows = []
    for i in range(n):
        t = (i - 1) % n
        for rp in range(b.dims[t]):
            for c in range(a.dims[i]):
                row = [0] * offsets[-1]
                for k in range(a.dims[t]):
                    row[offsets[t] + rp * a.dims[t] + k] += a.maps[i][k][c]
                for r in range(b.dims[i]):
                    row[offsets[i] + r * a.dims[i] + c] -= b.maps[i][rp][r]
                rows.append(row)
    return rows


def _unflatten(v, shapes) -> tuple:
    """A flat vector read back, row by row, as one matrix per (rows, columns) shape."""
    it = iter(v)
    return tuple(tuple(tuple(next(it) for _ in range(cols)) for _ in range(rows))
                 for rows, cols in shapes)


def hom_basis(a: NilpRep, b: NilpRep):
    """Basis of the morphism space, each morphism a tuple of matrices
    f_i from vertex i of a to vertex i of b: the nullspace of the
    commuting map d of _commuting_map, for maps of any shape."""
    rows = [row for row in _commuting_map(a, b) if any(row)]
    shapes = list(zip(b.dims, a.dims))
    return [_unflatten(v, shapes) for v in linalg.nullspace(rows, sum(r * c for r, c in shapes))]


def ext_basis(a: NilpRep, b: NilpRep):
    """Basis of Ext^1(a, b), each class a tuple of matrices h_i from
    vertex i of a to vertex i - 1 of b: the cokernel of the commuting map
    d, whose kernel is hom_basis.  Ringel's standard resolution makes
    0 -> Hom(a, b) -> (+) Hom(a_i, b_i) -> (+) Hom(a_i, b_{i-1}) -> Ext^1(a, b)
    -> 0 exact, d the middle map, for finite-dimensional representations
    of any quiver, and nilpotent ones are closed under extensions.  The
    unit targets off the pivots of d's image span the cokernel."""
    rows = _commuting_map(a, b)
    _, pivots = linalg.rref(list(zip(*rows)))
    shapes = [(b.dims[i - 1], a.dims[i]) for i in range(a.rank)]
    return [_unflatten([int(j == k) for j in range(len(rows))], shapes)
            for k in range(len(rows)) if k not in pivots]


def pushout_middle(a: NilpRep, b: NilpRep, h) -> NilpRep:
    """Middle term of the extension of a by b of class h (see ext_basis):
    b + a with the maps [[b_i, h_i], [0, a_i]], the pushout of the
    standard resolution of a along h.  b is its subrepresentation and a
    its quotient."""
    maps = []
    for i, (bm, hm, am) in enumerate(zip(b.maps, h, a.maps)):
        zero = (0,) * b.dims[i]
        maps.append(tuple((*rb, *rh) for rb, rh in zip(bm, hm))
                    + tuple((*zero, *ra) for ra in am))
    return NilpRep(a.rank, tuple(x + y for x, y in zip(b.dims, a.dims)), tuple(maps))


def _image_ranks(rep: NilpRep, start: int, limit: int) -> list:
    """Ranks of the composites 0, 1, ..., `limit` vertices down from
    `start`, cut after the first 0 (every later composite is 0 too).
    No composite is formed: a reduced basis of its image is pushed
    through one structure map per step, read as its nonzero columns."""
    n = rep.rank
    columns = [[[(r, m[r][c]) for r in range(len(m)) if m[r][c]] for c in range(rep.dims[i])]
               for i, m in enumerate(rep.maps)]
    d = rep.dims[start]
    basis = [[int(r == c) for c in range(d)] for r in range(d)]
    ranks = [d]
    v = start
    while basis and len(ranks) <= limit:
        cols, t = columns[v], (v - 1) % n
        image = []
        for vec in basis:
            out = [0] * rep.dims[t]
            for c, y in enumerate(vec):
                if y:
                    for r, x in cols[c]:
                        out[r] += x * y
            image.append(out)
        red, pivots = linalg.rref(image)
        basis = red[:len(pivots)]
        ranks.append(len(basis))
        v = t
    return ranks


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
