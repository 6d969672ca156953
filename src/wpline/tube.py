"""Wide subcategories of a rank-n tube, and the perpendicular calculus.

Objects of the tube are arcs (Arc, defined here).  Hom and Ext between
arcs are closed-form winding counts (`windings`, which the sheaf layer
shares), Ext counted as Hom into the translate (Serre duality) without
building it.  The lattice of wide subcategories (tube_lattice) holds
each one as the mask of its member arcs of length at most n over
tube_universe(n), where the arc of socle s and length l has index
s * n + l - 1.  A mask is exceptional-side ("exc") exactly when it has
no full-length member, equivalently when its factors miss a simple.
Frozenset fingerprints are output only (enumerate_wide, wide_closure,
enumerate_wide_bruteforce).

The perpendicular calculus is shared with the sheaf layer: a Universe
indexes a finite set of objects and keeps, per object, the bitsets of
objects with vanishing Hom and Ext, read from the layer's closed forms,
from which perpendiculars, closures of exceptional sequences (double
perpendiculars, Geigle-Lenzing) and rigid subsets are read off.  The
inclusion order of a list of masks is read off their holders table,
which the caller builds once and may share.

The linear-algebra oracle (nilpotent) serves only as an independent
check: _pair_row, closure_members, wide_closure, extension_middles,
enumerate_wide_bruteforce, ext_dim_via_presentation and
bongartz_complete run on it and read neither the closed form nor a
universe table.  This module imports no linalg, and the nilpotent names
only in the bodies of _rep, arc_hom_basis, ext_classes and
_middle_summands, so a process loads nilpotent on its first oracle call.
Hom and Ext of a pair are the kernel and the cokernel of one linear map,
from the standard resolution (nilpotent.ext_basis), so no arc longer
than the pair is built.  The kernel and the cokernel of a Hom basis map
are a sub-arc and a quotient arc, read off its rank.  Between arcs of
length at most the rank, the only ones the closures meet, Hom and Ext^1
are at most one-dimensional, so each pair has at most one extension
middle, that of its one Ext class.  The closure indexes the arcs of rank
n by integer ids, (length - 1) * n + socle, and reads one cached row per
ordered pair of ids (`_pair_row`): the id mask of the oracle's kernels,
cokernels and extension middles of that pair.  It closes at the rank:
no member longer than n is needed to reach one of length at most n (the
proof is at closure_members).

The oracle is filled once per rotation class of arc pairs.  Rotating
the cyclic quiver by d vertices is an automorphism of the tube, so the
Hom and Ext dimensions of a pair, and the arcs among the kernels,
cokernels and extension middles of its Hom basis maps and Ext classes,
are those of the pair rotated so that the first socle is vertex 0,
rotated back by d.  rep_of_arc numbers basis vectors from the socle
up, so a rotated pair has the same matrices on rotated vertices, and
nothing cached depends on the order in which the oracle meets the
vertices: an Ext count, the kernels and cokernels over the Hom basis
(one rank per class indicator of _image_length, whatever the order of
unknowns) and the middle of its Ext class.  The Ext count
(`_ext_count`) is cached on the integers (rank, socle difference,
lengths), and the closures read pair rows through `_rotated_row`, which
fills `_pair_row` only at first socle 0.  Each memo is functools.cache
on the function that fills it, and the oracle functions themselves stay
per pair.
"""

from __future__ import annotations

import collections
import functools
import itertools

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


@functools.cache
def _rep(arc: Arc):
    from .nilpotent import rep_of_arc
    return rep_of_arc(arc)


@functools.cache
def arc_hom_basis(a: Arc, b: Arc):
    """Basis of Hom(a, b) from the linear-algebra oracle."""
    from .nilpotent import hom_basis
    return tuple(hom_basis(_rep(a), _rep(b)))


def windings(r: int, length: int, n: int) -> int:
    """How many of the steps 0, 1, ..., length - 1 up an arc of rank n
    are congruent to r, for 0 <= r < n: once per full turn from r on.
    When r >= length, length - 1 - r lies in [-n, 0), so the count is 0."""
    return (length - 1 - r) // n + 1


def hom_dim(a: Arc, b: Arc) -> int:
    """Dimension of Hom(a, b), by counting windings.

    The image of a map a -> b is a quotient of a, so its top is the top
    of a, and a submodule of b, so its socle is the socle of b.  Its
    length s is then (a.top - b.socle) + 1 modulo the rank, and each
    admissible s <= min(len a, len b) gives one basis map: the windings
    of the shorter arc over r = (a.top - b.socle) mod n.
    """
    n = a.rank
    if n != b.rank:
        raise ValueError("arcs from tubes of different rank")
    return windings((a.top - b.socle) % n, min(a.length, b.length), n)


def ext_dim(a: Arc, b: Arc) -> int:
    """Dimension of Ext^1(a, b) = Hom(b, tau a) by Serre duality.

    This is the winding count of hom_dim(b, tau a): tau a is a with its
    socle moved back one step, so r = (b.top - a.socle + 1) mod n.
    """
    n = a.rank
    if n != b.rank:
        raise ValueError("arcs from tubes of different rank")
    return windings((b.top - a.socle + 1) % n, min(a.length, b.length), n)


def is_exceptional(a: Arc) -> bool:
    """An arc is exceptional exactly when it is shorter than the rank."""
    return a.length < a.rank


def all_arcs(n: int, max_len: int):
    return [Arc(n, s, l) for s in range(n) for l in range(1, max_len + 1)]


# ---------------------------------------------------------------------------
# extensions via the standard resolution

@functools.cache
def ext_classes(a: Arc, b: Arc):
    """Basis of Ext^1(a, b) from the linear-algebra oracle: the cokernel
    classes of nilpotent.ext_basis, each a tuple of matrices from vertex
    i of a to vertex i - 1 of b."""
    from .nilpotent import ext_basis
    return tuple(ext_basis(_rep(a), _rep(b)))


def ext_dim_via_presentation(a: Arc, b: Arc) -> int:
    """Ext dimension recomputed from the standard resolution alone: the
    count of `ext_classes` of the pair rotated so that a's socle is
    vertex 0, which the rotation of the quiver carries to this pair
    (see the module docstring)."""
    n = a.rank
    if n != b.rank:
        raise ValueError("arcs from tubes of different rank")
    return _ext_count(n, (b.socle - a.socle) % n, a.length, b.length)


@functools.cache
def _ext_count(n: int, d: int, la: int, lb: int) -> int:
    return len(ext_classes(Arc(n, 0, la), Arc(n, d, lb)))


def _middle_summands(a: Arc, b: Arc, h) -> tuple:
    from .nilpotent import decompose, pushout_middle
    parts = decompose(pushout_middle(_rep(a), _rep(b), h))
    return tuple(arc for arc in sorted(parts, key=Arc.sort_key) for _ in range(parts[arc]))


def extension_middles(a: Arc, b: Arc):
    """Iso-types of the middle terms of the nonsplit extensions of a by b,
    for a pair with at most one Ext class: the middle of that class, read
    from the oracle alone.  Nonzero classes of a one-dimensional Ext^1 are
    scalar multiples of one class, and multiples share a middle.  Raises
    ValueError when Ext^1(a, b) has dimension above one."""
    classes = ext_classes(a, b)
    if len(classes) > 1:
        raise ValueError("Ext^1 of dimension above one")
    return {_middle_summands(a, b, h) for h in classes}


def _image_length(f) -> int:
    """Image length, the rank, of a basis map between arcs: its count of
    nonzero entries.  Between arcs each commuting equation of
    nilpotent.hom_basis equates two entries or forces one to zero, so the
    nullspace is spanned by the indicators of the classes of entries not
    forced to zero, and the reduced echelon form leaves one entry per
    class free: each basis map is one 0/1 class indicator.  A class sends
    a top segment of a's basis vectors one to one onto the image's, so it
    has one entry per basis vector of the image.  It gives the kernel and
    the cokernel of each basis map in _pair_row."""
    return sum(x != 0 for m in f for row in m for x in row)


# ---------------------------------------------------------------------------
# wide closure and fingerprints

def arc_id(a: Arc) -> int:
    """Integer id of an arc among the arcs of its rank: the arcs of
    length at most L are exactly the ids below L * rank."""
    return (a.length - 1) * a.rank + a.socle


def arc_of_id(n: int, i: int) -> Arc:
    return Arc(n, i % n, i // n + 1)


def _id_mask(arcs) -> int:
    mask = 0
    for a in arcs:
        mask |= 1 << arc_id(a)
    return mask


def _kernel_and_cokernel(a: Arc, b: Arc, f) -> list:
    """The nonzero ones of the kernel and the cokernel of a basis map
    f : a -> b, as arcs read off its rank (see _pair_row)."""
    n, r = a.rank, _image_length(f)
    return ([Arc(n, a.socle, a.length - r)] if r < a.length else []) + \
        ([Arc(n, (b.socle + r) % n, b.length - r)] if r < b.length else [])


@functools.cache
def _pair_row(n: int, ia: int, ib: int) -> int:
    """Id mask of the kernels and cokernels of the Hom basis maps a -> b
    and of every summand of the extension middles of a by b, read from
    the linear-algebra oracle once per ordered pair.

    A basis map f of rank r = _image_length(f) has kernel the sub-arc of
    a of length len a - r and cokernel the arc of socle b.socle + r and
    length len b - r (`_kernel_and_cokernel`), since arcs are uniserial.
    In rep_of_arc every structure map sends basis vector j to j - 1, so
    a vector at one vertex whose highest nonzero coordinate is j
    generates the span of vectors 0, ..., j, and a subrepresentation is
    the span of vectors 0, ..., m - 1 for its dimension m: the sub-arc of
    length m.  The kernel is such a subrepresentation of a, of dimension
    len a - r; the image is the sub-arc of b of length r, and b over it
    keeps vectors r, ..., len b - 1, each sent to the one below, from
    vertex b.socle + r up.  Extension middles are not uniserial, so they
    are decomposed."""
    a, b = arc_of_id(n, ia), arc_of_id(n, ib)
    row = 0
    for f in arc_hom_basis(a, b):
        row |= _id_mask(_kernel_and_cokernel(a, b, f))
    for summands in extension_middles(a, b):
        row |= _id_mask(summands)
    return row


def _rotated_row(n: int, ia: int, ib: int) -> int:
    """`_pair_row` of a pair of ids, read at the pair rotated so that the
    first socle is vertex 0 and rotated back: the arc of id i rotated by
    d vertices has id i - i % n + (i + d) % n."""
    d = ia % n
    out = 0
    for i in bits(_pair_row(n, ia - d, ib - ib % n + (ib - d) % n)):
        out |= 1 << (i - i % n + (i + d) % n)
    return out


class TubeWideFingerprint(Record):
    """Member arcs of length <= rank of a wide subcategory of the tube."""

    _fields = ("rank", "arcs")


def closure_members(gens) -> frozenset:
    """Arcs of length at most the rank n in the wide closure of the
    generators.

    Members are a mask over integer arc ids (`arc_id`), kept below n * n.
    The closure is semi-naive: rows never change, so a pass ORs the
    pair-table rows (`_rotated_row`: kernels, cokernels and extension
    middles) of only the ordered pairs with a member that the previous
    pass added, each pair once; the loop stops when a pass adds nothing.
    The table is filled from the linear-algebra oracle alone, so the
    closure reads neither the closed-form Hom nor a universe.

    Closing at the rank is exact.  Let W be the wide closure of
    generators of length <= n and C the fixpoint computed here, which
    lies in W.
    - The bricks of a rank-n tube are the arcs of length <= n, since
      End(a) has dimension (len a - 1) // n + 1.
    - A wide subcategory is the filtration closure of its relative
      simples, which are bricks, and the filtration closure of any
      semibrick is wide (Ringel 1976).
    - Let S be the members of C with no proper nonzero sub-arc in C.
      They are pairwise Hom-orthogonal bricks: a nonzero basis map
      s -> s' has its kernel, a proper sub-arc of s, in C, so it is
      mono, and its image, a sub-arc of s' in C, is all of s'.  They
      filter every x in C: a proper sub-arc y of x in C puts x / y in
      C, as the cokernel of the inclusion, which spans Hom(y, x).  So
      Filt(S) is wide and holds the generators, and W lies in it.
    - A filtration of an arc x of length <= n runs through its own
      sub-arcs: each is the middle of a nonsplit extension of a factor
      by the previous sub-arc, all of length <= n.  With factors in S,
      each sub-arc lies in C by induction.
    So no member longer than n is ever needed to reach a member of
    length <= n: C is every arc of length <= n in W.
    """
    gens = list(gens)
    if not gens:
        return frozenset()
    n = gens[0].rank
    capped = (1 << n * n) - 1
    members = new = _id_mask(gens) & capped
    while new:
        ids = list(bits(members))
        old = list(bits(members & ~new))
        found = 0
        for ia in bits(new):
            for ib in ids:
                found |= _rotated_row(n, ia, ib)
            for ib in old:
                found |= _rotated_row(n, ib, ia)
        new = found & capped & ~members
        members |= new
    return frozenset(arc_of_id(n, i) for i in bits(members))


@functools.cache
def _closure(n: int, gens: frozenset) -> TubeWideFingerprint:
    return TubeWideFingerprint(n, closure_members(gens))


def wide_closure(gens) -> TubeWideFingerprint:
    """Fingerprint of the wide closure of a set of arcs of length at most
    the rank (see closure_members)."""
    gens = list(gens)
    if not gens:
        raise ValueError("closure of no generators: pass the rank explicitly via an arc")
    n = gens[0].rank
    if any(g.rank != n for g in gens):
        raise ValueError("generators from tubes of different rank")
    if any(g.length > n for g in gens):
        raise ValueError("generators longer than the rank")
    return _closure(n, frozenset(gens))


# ---------------------------------------------------------------------------
# perpendicular calculus over an indexed universe

def bits(mask: int):
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# str.translate table exchanging the digits "0" and "1"
_SWAP_DIGITS = {48: 49, 49: 48}


def level_key(mask: int) -> tuple:
    """Size, then sorted indices: the order of Universe.rigid_subsets,
    read as (size, the binary digits lowest first with 0 and 1 swapped).

    The strings sort as the index tuples do.  At equal size neither
    string is a prefix of the other, as the longer one would have a set
    bit past the end of the shorter and so one more member.  So two
    distinct masks of equal size first differ at a position p, the least
    index in exactly one of them.  Below p they hold the same indices, so
    their index tuples agree up to there and go on with p in the mask
    holding it and with a larger index in the other: that mask comes
    first in both orders, its string having the "0" at p."""
    return mask.bit_count(), bin(mask)[:1:-1].translate(_SWAP_DIGITS)


def meet(rows, mask: int, start: int) -> int:
    """The AND of start and of rows[i] over the set bits i of mask."""
    while mask:
        low = mask & -mask
        start &= rows[low.bit_length() - 1]
        mask ^= low
    return start


@functools.cache
def _bit_digits() -> tuple:
    """Per bit k of a byte, the bytes.translate table sending each byte
    to the digit b"0" or b"1" of its bit k, built on first use: bit k
    runs through 2^k zeros, then 2^k ones, over and over."""
    return tuple((b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8))


def holders(masks) -> collections.defaultdict:
    """Per member bit, the bitset over set indices of the sets holding it:
    the sets containing a mask are the meet of its members' holders.  A
    bit held by no set reads 0.

    This is the bit transpose of the masks, taken by byte columns.  Each
    mask is packed little-endian to the common width, last set first, so
    the slice blob[c::width] holds byte c of every mask with the last set
    first.  For bit k of that byte, one translate writes it as binary
    digits, most significant first, and int(..., 2) reads the holders of
    member 8c + k, bit j for set j."""
    masks = list(masks)
    out = collections.defaultdict(int)
    width = (max(masks, default=0).bit_length() + 7) // 8
    blob = b"".join(m.to_bytes(width, "little") for m in reversed(masks))
    for c in range(width):
        column = blob[c::width]
        for k, digits in enumerate(_bit_digits()):
            held = int(column.translate(digits), 2)
            if held:
                out[8 * c + k] = held
    return out


class Universe:
    """A finite indexed set of objects with Hom/Ext-vanishing bitsets.

    Sets of objects are bitmasks over the object order; when the objects
    are sorted by a key, ascending index tuples compare like key tuples.
    Bit j of right[i] is set when Hom and Ext^1 from object i to object j
    both vanish, so the right perpendicular of a set is the AND of its
    rows; left is the bit transpose of right, and compatible[i] marks the
    objects with no Ext^1 to or from object i.  The rows are filled in
    one pass over the ordered pairs from the layer's own closed-form Hom
    and Ext dimensions; Hom is asked only where Ext vanishes, since a
    right bit needs both to vanish.
    """

    def __init__(self, objects, hom, ext):
        self.objects = objs = tuple(objects)
        self.index = {x: i for i, x in enumerate(objs)}
        self.full = (1 << len(objs)) - 1
        ones = [1 << j for j in range(len(objs))]
        self.right, no_ext = [], []
        for x in objs:
            r = e = 0
            for one, y in zip(ones, objs):
                if ext(x, y) == 0:
                    e |= one
                    if hom(x, y) == 0:
                        r |= one
            self.right.append(r)
            no_ext.append(e)
        # the holders of a row set are its bit transpose
        held, ext_held = holders(self.right), holders(no_ext)
        self.left = [held[i] for i in range(len(objs))]
        self.compatible = [e & ext_held[i] for i, e in enumerate(no_ext)]

    def mask(self, objs) -> int:
        out = 0
        for x in objs:
            out |= 1 << self.index[x]
        return out

    def members(self, mask: int) -> tuple:
        return tuple(self.objects[i] for i in bits(mask))

    def right_perp(self, mask: int) -> int:
        return meet(self.right, mask, self.full)

    def left_perp(self, mask: int) -> int:
        return meet(self.left, mask, self.full)

    def double_perp(self, mask: int) -> int:
        """Left perpendicular of the right perpendicular.  For an
        exceptional sequence this is the wide subcategory it generates
        (Geigle-Lenzing)."""
        return self.left_perp(self.right_perp(mask))

    def rigid_subsets(self, candidates: int):
        """Yield every set of candidates with no Ext^1 between or within
        its members, as (mask, right perpendicular) pairs, in level order:
        the empty set, then one size at a time, each in ascending order of
        sorted indices, until a level is empty.  A rigid set is a partial
        tilting object, so it has at most rank K0 members on a weighted
        projective line (Bongartz completion; Happel-Ringel, Huebner) and
        n - 1 in a rank-n tube (Buan-Krause): no bound is needed.
        Extending each set of a level, in order, by its larger candidates
        in order gives level order, so the first set yielded with some
        property is the least one.  Each set carries its perpendicular,
        one AND per step, and the mask of the candidates that may still
        join it: those above its largest member compatible with every
        member.  The walk takes that mask's set bits lowest first, so it
        visits only the children it yields."""
        right, compatible = self.right, self.compatible
        rigid = sum(1 << i for i in bits(candidates) if compatible[i] >> i & 1)
        yield 0, self.full
        level = [(0, rigid, self.full)]
        while level:
            grown = []
            for chosen, allowed, perp in level:
                while allowed:
                    low = allowed & -allowed
                    allowed ^= low
                    i = low.bit_length() - 1
                    nxt, nxt_perp = chosen | low, perp & right[i]
                    yield nxt, nxt_perp
                    grown.append((nxt, allowed & compatible[i], nxt_perp))
            level = grown


def inclusion_order(masks, held):
    """Strict inclusion among distinct sets given as bitmasks, with held
    their holders table (holders(masks)).

    Returns, per set, the bitmask over set indices of the sets strictly
    containing it, and the cover pairs (i, j) of the order, in index
    order: the transitive reduction.  Every set must come after the sets
    it strictly contains (sort by size first): then the lowest index left
    above i is a cover of i, and its own row is cleared.  Rows span one
    bit per set, so a bit is cleared by XOR with the bits it holds, never
    by AND with a complement, which would build a negative row-wide int.
    """
    everyone = (1 << len(masks)) - 1
    above = [meet(held, m, everyone) ^ 1 << i for i, m in enumerate(masks)]
    covers = []
    for i, rest in enumerate(above):
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            covers.append((i, j))
            rest ^= low | rest & above[j]
    return above, covers


def is_rigid_set(objs, ext) -> bool:
    objs = list(objs)
    return all(ext(a, b) == 0 for a in objs for b in objs)


def is_exc_sequence(seq, hom=hom_dim, ext=ext_dim) -> bool:
    """Whether every member is exceptional (End one-dimensional, no
    self-extensions) and Hom and Ext vanish from every later member to
    every earlier one.  Defaults to arcs; the sheaf layer passes its
    own Hom and Ext.

    A repeated member fails the Hom condition, since Hom(s, s) = 1, so
    distinctness needs no separate test, and no member is hashed."""
    seq = list(seq)
    if any(hom(s, s) != 1 or ext(s, s) != 0 for s in seq):
        return False
    return all(hom(late, early) == 0 and ext(late, early) == 0
               for i, late in enumerate(seq) for early in seq[:i])


def order_exc_sequence(objs, hom=hom_dim, ext=ext_dim, key=Arc.sort_key):
    """Order a set of exceptional objects into an exceptional sequence.

    Later members must have no morphisms back to earlier ones, so the
    least member (by key) with no nonzero Hom to the rest is extracted
    and placed last, repeatedly.  Raises ValueError when the result is
    not an exceptional sequence.
    """
    objs = list(objs)
    remaining = sorted(set(objs), key=key)
    if len(remaining) != len(objs):
        raise ValueError("members must be pairwise distinct")
    extracted = []
    while remaining:
        pick = next((x for x in remaining
                     if all(hom(x, y) == 0 for y in remaining if y != x)), None)
        if pick is None:
            raise ValueError("set admits no exceptional ordering")
        remaining.remove(pick)
        extracted.append(pick)
    seq = tuple(reversed(extracted))
    if not is_exc_sequence(seq, hom, ext):
        raise ValueError("set admits no exceptional ordering")
    return seq


# ---------------------------------------------------------------------------
# the lattice of the tube

@functools.cache
def tube_universe(n: int) -> Universe:
    """The arcs of length at most n with the closed-form Hom and Ext."""
    return Universe(all_arcs(n, n), hom_dim, ext_dim)


def is_exc(n: int, mask: int) -> bool:
    """Whether a mask over tube_universe(n) has no full-length arc; the
    one of socle s has index s * n + n - 1."""
    return not any(mask >> (s * n + n - 1) & 1 for s in range(n))


def perp_pair(n: int, mask: int) -> int:
    """The partner of a lattice mask under the perpendicular bijection.

    An exc mask is sent to its right perpendicular inside the tube; a
    non-exc mask to its left perpendicular.  The two directions are
    mutually inverse.
    """
    uni = tube_universe(n)
    return uni.right_perp(mask) if is_exc(n, mask) else uni.left_perp(mask)


MAX_RANK = 6


@functools.cache
def tube_lattice(n: int) -> tuple:
    """Every wide subcategory of the rank-n tube, as a mask over
    tube_universe(n), listed by level_key.

    Exc members are the double perpendiculars of rigid arc sets (whose
    members are short, as a full arc extends itself), non-exc members
    their right perpendiculars P, which the rigid-set walk carries; the
    union is the whole lattice.  As right and left perpendiculars form a
    Galois connection, P is the right perpendicular of its own closure,
    so one left perpendicular per distinct P gives both halves.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    if n > MAX_RANK:
        raise ValueError(f"rank {n} above the configured bound {MAX_RANK}")
    uni = tube_universe(n)
    perps = {perp for _, perp in uni.rigid_subsets(uni.full)}
    return tuple(sorted(perps | set(map(uni.left_perp, perps)), key=level_key))


def enumerate_wide(n: int) -> frozenset:
    """All wide-subcategory fingerprints of the rank-n tube."""
    members = tube_universe(n).members
    return frozenset(TubeWideFingerprint(n, frozenset(members(m))) for m in tube_lattice(n))


def enumerate_wide_bruteforce(n: int) -> frozenset:
    """Fingerprints found by scanning every set of arcs of length <= n
    for closure fixpoints.

    A set is a fixpoint of closure_members exactly when no pair-table
    row (`_rotated_row`) of an ordered pair of its members leaves the set
    below the rank, so each id mask below 1 << n*n is tested against the
    rows of its pairs, read once.  Exponential in n*n; meant for small
    ranks as an independent check of the classification-driven
    enumeration.
    """
    capped = (1 << n * n) - 1
    rows = [[_rotated_row(n, ia, ib) & capped for ib in range(n * n)] for ia in range(n * n)]
    found = set()
    for mask in range(capped + 1):
        ids = list(bits(mask))
        if not any(rows[ia][ib] & ~mask for ia in ids for ib in ids):
            found.add(TubeWideFingerprint(n, frozenset(arc_of_id(n, i) for i in ids)))
    return frozenset(found)


# ---------------------------------------------------------------------------
# rigid completion

def bongartz_complete(part_a, part_b):
    """Complete two compatible rigid sets to one rigid generator.

    Requires Ext(a, b) = 0 for all a in the first set, b in the second.
    The returned rigid set generates the same wide closure as the union:
    it is the second set plus the fewest arcs of one pool, the
    exceptional arcs of that closure outside the second set, found by an
    exhaustive search over the pool by size.  The first set lies in the
    closure, so it is in the pool.  Ext is taken from the standard
    resolution, so the search runs on the linear-algebra oracle alone.
    """
    ext = ext_dim_via_presentation
    part_a = sorted(set(part_a), key=lambda a: a.sort_key())
    part_b = sorted(set(part_b), key=lambda a: a.sort_key())
    if not part_a and not part_b:
        return ()
    n = (part_a or part_b)[0].rank
    for part, label in ((part_a, "first set"), (part_b, "second set")):
        if not is_rigid_set(part, ext):
            raise ValueError(f"{label} is not rigid")
    for a in part_a:
        for b in part_b:
            if ext(a, b) != 0:
                raise ValueError("Ext from the first set to the second must vanish")
    union = sorted(set(part_a) | set(part_b), key=lambda a: a.sort_key())
    if is_rigid_set(union, ext):
        return tuple(union)
    target = wide_closure(union)
    pool = [x for x in sorted(target.arcs, key=Arc.sort_key)
            if is_exceptional(x) and x not in part_b]
    for size in range(min(len(pool), n) + 1):
        for extra in itertools.combinations(pool, size):
            cand = sorted((*part_b, *extra), key=Arc.sort_key)
            if is_rigid_set(cand, ext) and wide_closure(cand) == target:
                return tuple(cand)
    raise AssertionError("no rigid completion found in the closure")
