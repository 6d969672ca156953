"""Wide subcategories of a rank-n tube, and the perpendicular calculus.

Objects of the tube are arcs (see nilpotent.Arc).  Hom and Ext between
arcs are closed-form winding counts, Ext counted as Hom into the
translate (Serre duality) without building it.  The lattice of wide
subcategories (tube_lattice) holds each one as the mask of its member
arcs of length at most n over tube_universe(n), where the arc of socle s
and length l has index s * n + l - 1.  A mask is exceptional-side ("exc")
exactly when it has no full-length member, equivalently when its factors
miss a simple.  Frozenset fingerprints are output only (enumerate_wide,
wide_closure, enumerate_wide_bruteforce).

The perpendicular calculus is shared with the sheaf layer: a Universe
indexes a finite set of objects and keeps, per object, the bitsets of
objects with vanishing Hom and Ext (Ext as Hom into the translate),
from which perpendiculars, closures of exceptional sequences (double
perpendiculars, Geigle-Lenzing) and rigid subsets are read off.  The
inclusion order of a list of masks is read off their holders table,
which the caller builds once and may share.

The linear-algebra oracle (nilpotent, linalg) serves only as an
independent check: wide_closure, extension_middles, bongartz_complete,
enumerate_wide_bruteforce and ext_dim_via_presentation run on it and
read neither the closed form nor a universe table.  Only this module
and nilpotent use linalg; here it and the nilpotent names but Arc stay
inside _rep, arc_hom_basis, _inclusion_matrices, _compose, ext_classes,
_middle_summands and _pair_row.  Extension middles are enumerated
exactly, one per orbit of Ext classes.  The closure indexes the arcs of
rank n by integer ids, (length - 1) * n + socle, and reads one cached
row per ordered pair of ids (`_pair_row`): the id mask of the oracle's
kernels, cokernels and extension middles of that pair.  It closes at
the rank: no member longer than n is needed to reach one of length at
most n (the proof is at closure_members).  The oracle's memo tables
are functools.cache on the functions that fill them.
"""

from __future__ import annotations

import collections
import functools
import itertools

from . import linalg
from ._record import Record
from .nilpotent import (Arc, NilpRep, cokernel_rep, decompose, hom_basis,
                        kernel_rep, pushout_middle, rep_of_arc)


@functools.cache
def _rep(arc: Arc) -> NilpRep:
    return rep_of_arc(arc)


@functools.cache
def arc_hom_basis(a: Arc, b: Arc):
    """Basis of Hom(a, b) from the linear-algebra oracle."""
    return tuple(hom_basis(_rep(a), _rep(b)))


def hom_dim(a: Arc, b: Arc) -> int:
    """Dimension of Hom(a, b), by counting windings.

    The image of a map a -> b is a quotient of a, so its top is the top
    of a, and a submodule of b, so its socle is the socle of b.  Its
    length s is then fixed modulo the rank, and each admissible
    s <= min(len a, len b) gives one basis map.
    """
    n = a.rank
    if n != b.rank:
        raise ValueError("arcs from tubes of different rank")
    first = (a.top - b.socle) % n + 1
    shortest = min(a.length, b.length)
    return 0 if first > shortest else (shortest - first) // n + 1


def ext_dim(a: Arc, b: Arc) -> int:
    """Dimension of Ext^1(a, b) = Hom(b, tau a) by Serre duality.

    This is the winding count of hom_dim(b, tau a): tau a is a with its
    socle moved back one step, so the shortest image runs from the top
    of b down to a.socle - 1.
    """
    n = a.rank
    if n != b.rank:
        raise ValueError("arcs from tubes of different rank")
    first = (b.top - a.socle + 1) % n + 1
    shortest = min(a.length, b.length)
    return 0 if first > shortest else (shortest - first) // n + 1


def is_exceptional(a: Arc) -> bool:
    """An arc is exceptional exactly when it is shorter than the rank."""
    return a.length < a.rank


def all_arcs(n: int, max_len: int):
    return [Arc(n, s, l) for s in range(n) for l in range(1, max_len + 1)]


# ---------------------------------------------------------------------------
# extensions via projective presentations at a truncation

def _inclusion_matrices(k: NilpRep, p: NilpRep):
    """The inclusion of K into P, where K and P are arcs with one socle:
    rep_of_arc numbers basis vectors from the socle up, so at every
    vertex K's basis vectors are P's first ones."""
    return tuple(tuple(tuple(int(r == c) for c in range(kd)) for r in range(pd))
                 for kd, pd in zip(k.dims, p.dims))


def _compose(f, g):
    # (f after g) vertex by vertex, as tuples so that a composite stays hashable
    return tuple(tuple(map(tuple, linalg.mat_mul(x, y))) for x, y in zip(f, g))


@functools.cache
def ext_classes(a: Arc, b: Arc):
    """Basis of Ext^1(a, b) as morphisms from the presentation kernel to b.

    The presentation 0 -> K -> P -> a -> 0 uses the length-N arc P with
    the same top as a, N large enough that every extension of a by b
    lives below the truncation.  Classes are coset representatives of
    Hom(K, b) modulo restrictions of Hom(P, b).
    """
    n = a.rank
    N = a.length + b.length + n
    p_arc = Arc(n, (a.socle + a.length - N) % n, N)
    k_arc = Arc(n, p_arc.socle, N - a.length)
    p_rep = _rep(p_arc)
    incl = _inclusion_matrices(_rep(k_arc), p_rep)
    k_hom = arc_hom_basis(k_arc, b)
    restricted = [_compose(f, incl) for f in arc_hom_basis(p_arc, b)]
    # as columns after the restrictions, a basis map is a pivot exactly
    # when it is independent of the maps before it
    cols = [[x for m in f for row in m for x in row] for f in (*restricted, *k_hom)]
    _, pivots = linalg.rref(list(zip(*cols)))
    return [(k_arc, p_arc, incl, k_hom[c - len(restricted)])
            for c in pivots if c >= len(restricted)]


def ext_dim_via_presentation(a: Arc, b: Arc) -> int:
    """Ext dimension recomputed from the projective presentation alone."""
    return len(ext_classes(a, b))


def _middle_summands(b: Arc, cls) -> tuple:
    k_arc, p_arc, incl, g = cls
    mid = pushout_middle(_rep(k_arc), _rep(p_arc), incl, _rep(b), g)
    parts = decompose(mid)
    out = []
    for arc in sorted(parts, key=lambda x: x.sort_key()):
        out.extend([arc] * parts[arc])
    return tuple(out)


def extension_middles(a: Arc, b: Arc):
    """Iso-types of the middle terms of the nonsplit extensions of a by b.

    Exact, from the oracle alone (ext_classes and the Hom basis of
    End(b)), by one middle per orbit representative:

    - End(b) is the uniserial ring k[t]/(t^m), t the shift of b down by
      the rank; its basis map of image length len b - j * rank is t^j
      (times a unit).  Precomposing a map b -> tau a with t shortens its
      image by the rank, so Hom(b, tau a) is cyclic over End(b), and so
      is its dual Ext^1(a, b) (Serre duality is natural in b): it is
      k[t]/(t^d), d its dimension, d <= m.
    - Aut(b) has the orbits {0} and t^i g Aut(b), i < d, g a generator,
      on it.  Aut(a) acts End(b)-linearly, so the orbits of
      Aut(a) x Aut(b) are the same d + 1, and the middle is constant on
      each.
    - The generators are the classes h with t^(d-1) h != 0, those outside
      the hyperplane t Ext^1, so every basis has one.  The pushouts t^i g,
      i < d, of one generator g along the d longest-image basis maps of
      End(b) meet every nonzero orbit.
    - A class is zero exactly when its middle is a + b: a nonsplit short
      exact sequence of modules of finite length never has the direct
      sum of its ends as middle (Miyata 1967).  So the basis classes are
      walked until the pushout of one along the shortest of those maps,
      t^(d-1), has a nonsplit middle; that class is a generator, and it
      is pushed out along the other d - 1 maps.
    """
    classes = ext_classes(a, b)
    if not classes:
        return set()
    *longer, shortest = sorted(arc_hom_basis(b, b), key=_image_length, reverse=True)[:len(classes)]
    split = tuple(sorted((a, b), key=Arc.sort_key))

    def pushout(cls, t):
        k_arc, p_arc, incl, g = cls
        return _middle_summands(b, (k_arc, p_arc, incl, _compose(t, g)))

    for cls in classes:
        last = pushout(cls, shortest)
        if last != split:
            return {last} | {pushout(cls, t) for t in longer}
    raise AssertionError("no generator among the basis classes of Ext^1")


def _image_length(f) -> int:
    """Image length of a basis map between arcs: its matrices have one
    entry 1 per basis vector of the image (nilpotent.hom_basis)."""
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


@functools.cache
def _pair_row(n: int, ia: int, ib: int) -> int:
    """Id mask of every summand of the kernels and cokernels of the Hom
    basis maps a -> b and of the extension middles of a by b, read from
    the linear-algebra oracle once per ordered pair."""
    a, b = arc_of_id(n, ia), arc_of_id(n, ib)
    ra, rb = _rep(a), _rep(b)
    row = 0
    for f in arc_hom_basis(a, b):
        row |= _id_mask(decompose(kernel_rep(ra, rb, f)))
        row |= _id_mask(decompose(cokernel_rep(ra, rb, f)))
    for summands in extension_middles(a, b):
        row |= _id_mask(summands)
    return row


class TubeWideFingerprint(Record):
    """Member arcs of length <= rank of a wide subcategory of the tube."""

    _fields = ("rank", "arcs")

    def __init__(self, rank: int, arcs: frozenset):
        self._init(rank, arcs)


def closure_members(gens) -> frozenset:
    """Arcs of length at most the rank n in the wide closure of the
    generators.

    Members are a mask over integer arc ids (`arc_id`), kept below n * n.
    The closure is semi-naive: rows never change, so a pass ORs the
    pair-table rows (`_pair_row`: kernels, cokernels and extension
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
                found |= _pair_row(n, ia, ib)
            for ib in old:
                found |= _pair_row(n, ib, ia)
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


def level_key(mask: int) -> tuple:
    """Size, then sorted indices: the order of Universe.rigid_subsets."""
    return mask.bit_count(), tuple(bits(mask))


def meet(rows, mask: int, start: int) -> int:
    """The AND of start and of rows[i] over the set bits i of mask."""
    while mask:
        low = mask & -mask
        start &= rows[low.bit_length() - 1]
        mask ^= low
    return start


def holders(masks) -> collections.defaultdict:
    """Per member bit, the bitset over set indices of the sets holding it:
    the sets containing a mask are the meet of its members' holders."""
    out = collections.defaultdict(int)
    for j, m in enumerate(masks):
        for i in bits(m):
            out[i] |= 1 << j
    return out


class Universe:
    """A finite indexed set of objects with Hom/Ext-vanishing bitsets.

    Sets of objects are bitmasks over the object order; when the objects
    are sorted by a key, ascending index tuples compare like key tuples.
    Bit j of right[i] is set when Hom and Ext^1 from object i to object j
    both vanish, so the right perpendicular of a set is the AND of its
    rows; left is the bit transpose of right, and compatible[i] marks the
    objects with no Ext^1 to or from object i.  Ext is filled by Serre
    duality, Ext^1(x, y) = Hom(y, tau x), from the layer's Hom and its
    translate tau, taken once per object: the Ext row of x is the Hom
    column of tau x, or one Hom row into tau x when it is not a member.
    """

    def __init__(self, objects, hom, tau):
        self.objects = tuple(objects)
        self.index = {x: i for i, x in enumerate(self.objects)}
        self.full = (1 << len(self.objects)) - 1
        objs = self.objects
        no_hom = [sum(1 << j for j, y in enumerate(objs) if hom(x, y) == 0) for x in objs]
        no_hom_into = holders(no_hom)
        no_ext = [no_hom_into[k] if (k := self.index.get(tx)) is not None
                  else sum(1 << j for j, y in enumerate(objs) if hom(y, tx) == 0)
                  for tx in map(tau, objs)]
        self.right = [h & e for h, e in zip(no_hom, no_ext)]
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

    def rigid_subsets(self, candidates: int, max_size: int):
        """Yield every set of at most max_size candidates with no Ext^1
        between or within its members, as (mask, right perpendicular)
        pairs, in level order: the empty set first, then one size at a
        time, each size in ascending order of sorted indices.  Extending
        each set of a level, in order, by its larger candidates in order
        gives exactly that order, so the first set yielded with some
        property is the least one by size, then sorted indices.  The
        perpendicular is carried along, one AND per step."""
        cands = [i for i in bits(candidates) if self.compatible[i] >> i & 1]
        yield 0, self.full
        level = [(0, 0, self.full, self.full)]
        for _ in range(max_size):
            grown = []
            for chosen, start, allowed, perp in level:
                for pos in range(start, len(cands)):
                    i = cands[pos]
                    if allowed >> i & 1:
                        nxt, nxt_perp = chosen | 1 << i, perp & self.right[i]
                        yield nxt, nxt_perp
                        grown.append((nxt, pos + 1, allowed & self.compatible[i], nxt_perp))
            level = grown


def inclusion_order(masks, held):
    """Strict inclusion among distinct sets given as bitmasks, with held
    their holders table (holders(masks)).

    Returns, per set, the bitmask over set indices of the sets strictly
    containing it, and the cover pairs (i, j) of the order, in index
    order: the transitive reduction.  Every set must come after the sets
    it strictly contains (sort by size first): then the lowest index left
    above i is a cover of i, and its own row is cleared.
    """
    everyone = (1 << len(masks)) - 1
    above = [meet(held, m, everyone) & ~(1 << i) for i, m in enumerate(masks)]
    covers = []
    for i, rest in enumerate(above):
        while rest:
            j = (rest & -rest).bit_length() - 1
            covers.append((i, j))
            rest &= ~above[j] & ~(1 << j)
    return above, covers


def is_rigid_set(objs, ext=ext_dim) -> bool:
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
    return Universe(all_arcs(n, n), hom_dim, Arc.tau)


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
    perps = {perp for _, perp in uni.rigid_subsets(uni.full, max_size=n - 1)}
    return tuple(sorted(perps | set(map(uni.left_perp, perps)), key=level_key))


def enumerate_wide(n: int) -> frozenset:
    """All wide-subcategory fingerprints of the rank-n tube."""
    members = tube_universe(n).members
    return frozenset(TubeWideFingerprint(n, frozenset(members(m))) for m in tube_lattice(n))


def enumerate_wide_bruteforce(n: int) -> frozenset:
    """Fingerprints found by scanning every set of arcs of length <= n
    for closure fixpoints.

    A set is a fixpoint of closure_members exactly when no pair-table
    row (`_pair_row`) of an ordered pair of its members leaves the set
    below the rank, so each id mask below 1 << n*n is tested against the
    rows of its pairs.  Exponential in n*n; meant for small ranks as an
    independent check of the classification-driven enumeration.
    """
    capped = (1 << n * n) - 1
    found = set()
    for mask in range(capped + 1):
        ids = list(bits(mask))
        if not any(_pair_row(n, ia, ib) & capped & ~mask for ia in ids for ib in ids):
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
    closure, so it is in the pool.  Ext is taken from projective
    presentations, so the search runs on the linear-algebra oracle alone.
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
