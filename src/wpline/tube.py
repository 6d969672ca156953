"""Wide subcategories of a rank-n tube, and the perpendicular calculus.

Objects of the tube are arcs (see nilpotent.Arc).  Hom between arcs is
a closed-form winding count and Ext is Hom into the translate (Serre
duality).  Wide subcategories are represented by their fingerprint: the
set of member arcs of length at most n, which determines the
subcategory.  A fingerprint is exceptional ("exc") exactly when it has
no member of full length n, equivalently when its factors miss at least
one simple.

The perpendicular calculus is shared with the sheaf layer: a Universe
indexes a finite set of objects and keeps, per object, the bitsets of
objects with vanishing Hom and Ext, from which perpendiculars, closures
of exceptional sequences (double perpendiculars, Geigle-Lenzing) and
rigid subsets are read off.  The tube enumerates its lattice over the
arcs of length at most n.

The linear-algebra oracle (nilpotent, linalg) serves only as an
independent check: wide_closure, extension_middles, bongartz_complete,
enumerate_wide_bruteforce and ext_dim_via_presentation run on it and
read neither the closed form nor a universe table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .nilpotent import (Arc, NilpRep, cokernel_rep, decompose, hom_basis,
                        kernel_rep, pushout_middle, rep_of_arc)

_REP_CACHE: dict[Arc, NilpRep] = {}
_HOM_BASIS_CACHE: dict[tuple[Arc, Arc], tuple] = {}
_PAIR_KC_CACHE: dict[tuple[Arc, Arc], frozenset] = {}
_PAIR_MID_CACHE: dict[tuple[Arc, Arc], frozenset] = {}
_EXT_CLASS_CACHE: dict[tuple[Arc, Arc], list] = {}


def _rep(arc: Arc) -> NilpRep:
    rep = _REP_CACHE.get(arc)
    if rep is None:
        rep = _REP_CACHE[arc] = rep_of_arc(arc)
    return rep


def arc_hom_basis(a: Arc, b: Arc):
    """Basis of Hom(a, b) from the linear-algebra oracle."""
    key = (a, b)
    basis = _HOM_BASIS_CACHE.get(key)
    if basis is None:
        basis = _HOM_BASIS_CACHE[key] = tuple(hom_basis(_rep(a), _rep(b)))
    return basis


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
    """Dimension of Ext^1(a, b) = Hom(b, tau a) by Serre duality."""
    return hom_dim(b, a.tau())


def is_exceptional(a: Arc) -> bool:
    """An arc is exceptional exactly when it is shorter than the rank."""
    return a.length < a.rank


def all_arcs(n: int, max_len: int):
    return [Arc(n, s, l) for s in range(n) for l in range(1, max_len + 1)]


# ---------------------------------------------------------------------------
# extensions via projective presentations at a truncation

def _inclusion_matrices(k: NilpRep, p: NilpRep, k_arc: Arc, p_arc: Arc):
    n = k_arc.rank
    kslots = [[] for _ in range(n)]
    for j in range(k_arc.length):
        kslots[(k_arc.socle + j) % n].append(j)
    pslots = [[] for _ in range(n)]
    for j in range(p_arc.length):
        pslots[(p_arc.socle + j) % n].append(j)
    incl = []
    for i in range(n):
        m = [[Fraction(0)] * k.dims[i] for _ in range(p.dims[i])]
        for kc, j in enumerate(kslots[i]):
            m[pslots[i].index(j)][kc] = Fraction(1)
        incl.append(tuple(tuple(row) for row in m))
    return tuple(incl)


def _vec_morphism(b: NilpRep, k: NilpRep, f):
    out = []
    for i in range(k.rank):
        for r in range(b.dims[i]):
            for c in range(k.dims[i]):
                out.append(Fraction(f[i][r][c]))
    return out


def _compose(f, g, mid: NilpRep):
    # (f after g), g: X -> mid, f: mid -> Y, all tuples of matrices
    return tuple(tuple(tuple(sum(f[i][r][k] * g[i][k][c] for k in range(mid.dims[i]))
                             for c in range(len(g[i][0]) if g[i] else 0))
                       for r in range(len(f[i])))
                 for i in range(mid.rank))


def ext_classes(a: Arc, b: Arc):
    """Basis of Ext^1(a, b) as morphisms from the presentation kernel to b.

    The presentation 0 -> K -> P -> a -> 0 uses the length-N arc P with
    the same top as a, N large enough that every extension of a by b
    lives below the truncation.  Classes are coset representatives of
    Hom(K, b) modulo restrictions of Hom(P, b).
    """
    key = (a, b)
    cached = _EXT_CLASS_CACHE.get(key)
    if cached is not None:
        return cached
    n = a.rank
    N = a.length + b.length + n
    p_arc = Arc(n, (a.socle + a.length - N) % n, N)
    k_arc = Arc(n, p_arc.socle, N - a.length)
    p_rep, k_rep, b_rep = _rep(p_arc), _rep(k_arc), _rep(b)
    incl = _inclusion_matrices(k_rep, p_rep, k_arc, p_arc)
    k_hom = arc_hom_basis(k_arc, b)
    restricted = [_vec_morphism(b_rep, k_rep, _compose(f, incl, p_rep))
                  for f in arc_hom_basis(p_arc, b)]
    span = [v for v in restricted if any(x != 0 for x in v)]
    chosen = []
    base_rank = linalg.rank(span) if span else 0
    current = list(span)
    current_rank = base_rank
    for f in k_hom:
        v = _vec_morphism(b_rep, k_rep, f)
        cand = current + [v]
        r = linalg.rank(cand)
        if r > current_rank:
            chosen.append(f)
            current = cand
            current_rank = r
    result = [(k_arc, p_arc, incl, f) for f in chosen]
    _EXT_CLASS_CACHE[key] = result
    return result


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


def _scaled_sum_class(c1, c2, coef: int):
    k_arc, p_arc, incl, g1 = c1
    _, _, _, g2 = c2
    g = tuple(tuple(tuple(g1[i][r][c] + coef * g2[i][r][c]
                          for c in range(len(g1[i][r])))
                    for r in range(len(g1[i])))
              for i in range(len(g1)))
    return (k_arc, p_arc, incl, g)


def extension_middles(a: Arc, b: Arc):
    """Iso-types of middle terms of extensions of a by b.

    Middles are taken over every basis class; for Ext spaces of dimension
    two or more, pairwise sums with small integer coefficients are added
    and the resulting set of iso-types must already be stable before the
    last coefficient, otherwise the sampling is reported as insufficient.
    """
    classes = ext_classes(a, b)
    middles = {_middle_summands(b, cls) for cls in classes}
    if len(classes) >= 2:
        seen_small = set(middles)
        for i, j in itertools.combinations(range(len(classes)), 2):
            for coef in (1, 2):
                seen_small.add(_middle_summands(b, _scaled_sum_class(classes[i], classes[j], coef)))
        seen_full = set(seen_small)
        for i, j in itertools.combinations(range(len(classes)), 2):
            seen_full.add(_middle_summands(b, _scaled_sum_class(classes[i], classes[j], 3)))
        if seen_full != seen_small:
            raise AssertionError("extension middle sampling did not stabilize")
        middles = seen_full
    return middles


# ---------------------------------------------------------------------------
# wide closure and fingerprints

def _pair_kernel_cokernel(a: Arc, b: Arc) -> frozenset:
    key = (a, b)
    cached = _PAIR_KC_CACHE.get(key)
    if cached is not None:
        return cached
    found = set()
    ra, rb = _rep(a), _rep(b)
    for f in arc_hom_basis(a, b):
        for rep_kind in (kernel_rep(ra, rb, f), cokernel_rep(ra, rb, f)):
            found.update(decompose(rep_kind))
    result = frozenset(found)
    _PAIR_KC_CACHE[key] = result
    return result


def _pair_middles(a: Arc, b: Arc) -> frozenset:
    key = (a, b)
    cached = _PAIR_MID_CACHE.get(key)
    if cached is not None:
        return cached
    found = set()
    for summands in extension_middles(a, b):
        found.update(summands)
    result = frozenset(found)
    _PAIR_MID_CACHE[key] = result
    return result


@dataclass(frozen=True)
class TubeWideFingerprint:
    """Member arcs of length <= rank of a wide subcategory of the tube."""

    rank: int
    arcs: frozenset

    @property
    def exc(self) -> bool:
        return all(a.length < self.rank for a in self.arcs)

    def sorted_arcs(self):
        return sorted(self.arcs, key=lambda a: a.sort_key())

    def factor_support(self) -> frozenset:
        return frozenset(v for a in self.arcs for v in a.factors())


def closure_members(gens, n: int, cap: int) -> frozenset:
    """Arcs of length <= cap in the wide closure of the generators."""
    members = {g for g in gens if g.length <= cap}
    while True:
        new = set()
        current = sorted(members, key=lambda a: a.sort_key())
        for a in current:
            for b in current:
                for arc in _pair_kernel_cokernel(a, b):
                    if arc.length <= cap and arc not in members:
                        new.add(arc)
                for arc in _pair_middles(a, b):
                    if arc.length <= cap and arc not in members:
                        new.add(arc)
        if not new:
            return frozenset(members)
        members.update(new)


_CLOSURE_CACHE: dict = {}


def wide_closure(gens, cap: int | None = None, check_stability: bool = True) -> TubeWideFingerprint:
    """Fingerprint of the wide closure of a set of arcs.

    Kernels, cokernels and extension middles are accumulated up to the
    length cap (default twice the rank).  The truncation is guarded by
    recomputing at cap plus rank and insisting on the same fingerprint.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("closure of no generators: pass the rank explicitly via an arc")
    n = gens[0].rank
    if any(g.rank != n for g in gens):
        raise ValueError("generators from tubes of different rank")
    if cap is None:
        cap = 2 * n
    if cap < 2 * n:
        raise ValueError("cap below twice the rank would truncate extensions")
    key = (n, frozenset(gens), cap, check_stability)
    hit = _CLOSURE_CACHE.get(key)
    if hit is not None:
        return hit
    members = closure_members(gens, n, cap)
    fp = TubeWideFingerprint(n, frozenset(a for a in members if a.length <= n))
    if check_stability:
        wider = closure_members(gens, n, cap + n)
        fp2 = TubeWideFingerprint(n, frozenset(a for a in wider if a.length <= n))
        if fp != fp2:
            raise AssertionError("wide closure unstable under cap increase")
    _CLOSURE_CACHE[key] = fp
    return fp


def zero_fingerprint(n: int) -> TubeWideFingerprint:
    return TubeWideFingerprint(n, frozenset())


def whole_fingerprint(n: int) -> TubeWideFingerprint:
    return TubeWideFingerprint(n, frozenset(all_arcs(n, n)))


# ---------------------------------------------------------------------------
# perpendicular calculus over an indexed universe

def _bits(mask: int):
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Universe:
    """A finite indexed set of objects with Hom/Ext-vanishing bitsets.

    Sets of objects are bitmasks over the object order.  Bit j of
    right[i] is set when Hom and Ext^1 from object i to object j both
    vanish, so the right perpendicular of a set is the AND of its rows;
    left[i] is the transposed row.  compatible[i] marks the objects with
    no Ext^1 to or from object i.  The tables are filled once from the
    layer's own hom and ext.
    """

    def __init__(self, objects, hom, ext):
        self.objects = tuple(objects)
        self.index = {x: i for i, x in enumerate(self.objects)}
        self.full = (1 << len(self.objects)) - 1
        idx = range(len(self.objects))
        no_hom = [[hom(x, y) == 0 for y in self.objects] for x in self.objects]
        no_ext = [[ext(x, y) == 0 for y in self.objects] for x in self.objects]

        def row(test):
            return [sum(1 << j for j in idx if test(i, j)) for i in idx]

        self.right = row(lambda i, j: no_hom[i][j] and no_ext[i][j])
        self.left = row(lambda i, j: no_hom[j][i] and no_ext[j][i])
        self.compatible = row(lambda i, j: no_ext[i][j] and no_ext[j][i])

    def mask(self, objs) -> int:
        out = 0
        for x in objs:
            out |= 1 << self.index[x]
        return out

    def members(self, mask: int) -> tuple:
        return tuple(self.objects[i] for i in _bits(mask))

    def right_perp(self, mask: int) -> int:
        out = self.full
        for i in _bits(mask):
            out &= self.right[i]
        return out

    def left_perp(self, mask: int) -> int:
        out = self.full
        for i in _bits(mask):
            out &= self.left[i]
        return out

    def double_perp(self, mask: int, within: int | None = None) -> int:
        """Left perpendicular of the right perpendicular, both taken inside
        `within` (default: everything).  For an exceptional sequence this
        is the wide subcategory it generates (Geigle-Lenzing)."""
        if within is None:
            within = self.full
        return self.left_perp(self.right_perp(mask) & within) & within

    def rigid_subsets(self, candidates: int, max_size: int) -> list:
        """All sets of at most max_size candidates with no Ext^1 between
        or within their members, as object tuples in universe order; the
        empty set comes first, the rest in depth-first order."""
        cands = [i for i in _bits(candidates) if self.compatible[i] >> i & 1]
        out = [()]
        stack = [((), 0, self.full)]
        while stack:
            chosen, start, allowed = stack.pop()
            if len(chosen) == max_size:
                continue
            for pos in range(start, len(cands)):
                i = cands[pos]
                if allowed >> i & 1:
                    nxt = chosen + (self.objects[i],)
                    out.append(nxt)
                    stack.append((nxt, pos + 1, allowed & self.compatible[i]))
        return out


def inclusion_order(masks):
    """Strict inclusion among distinct sets given as bitmasks.

    Returns, per set, the bitmask over set indices of the sets strictly
    containing it, and the cover pairs (i, j) of the order, in index
    order: the transitive reduction.
    """
    above = [0] * len(masks)
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if a != b and a & b == a:
                above[i] |= 1 << j
    covers = []
    for i, up in enumerate(above):
        reach = 0
        for k in _bits(up):
            reach |= above[k]
        covers.extend((i, j) for j in _bits(up & ~reach))
    return above, covers


def is_rigid_set(objs, ext=ext_dim) -> bool:
    objs = list(objs)
    return all(ext(a, b) == 0 for a in objs for b in objs)


def is_exc_sequence(seq, hom=hom_dim, ext=ext_dim) -> bool:
    """Whether every member is exceptional (End one-dimensional, no
    self-extensions) and Hom and Ext vanish from every later member to
    every earlier one.  Defaults to arcs; the sheaf layer passes its
    own Hom and Ext."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return False
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


def _fingerprint(n: int, mask: int) -> TubeWideFingerprint:
    return TubeWideFingerprint(n, frozenset(tube_universe(n).members(mask)))


def perp_pair(f: TubeWideFingerprint) -> TubeWideFingerprint:
    """The partner of a fingerprint under the perpendicular bijection.

    An exc fingerprint is sent to its right perpendicular inside the
    tube; a non-exc fingerprint to its left perpendicular.  The two
    directions are mutually inverse.
    """
    uni = tube_universe(f.rank)
    mask = uni.mask(f.arcs)
    return _fingerprint(f.rank, uni.right_perp(mask) if f.exc else uni.left_perp(mask))


def enumerate_wide(n: int, max_rank: int = 6) -> frozenset:
    """All wide-subcategory fingerprints of the rank-n tube.

    Exc members are the double perpendiculars of rigid arc sets (whose
    members are short, as a full arc extends itself), non-exc members
    their perpendiculars; the union is the whole lattice.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    if n > max_rank:
        raise ValueError(f"rank {n} above the configured bound {max_rank}")
    uni = tube_universe(n)
    exc = {_fingerprint(n, uni.double_perp(uni.mask(subset)))
           for subset in uni.rigid_subsets(uni.full, max_size=n - 1)}
    return frozenset(exc | {perp_pair(f) for f in exc})


def enumerate_wide_bruteforce(n: int) -> frozenset:
    """Fingerprints found by scanning every arc subset for closure fixpoints.

    Exponential in n*n; meant for small ranks as an independent check of
    the classification-driven enumeration.
    """
    universe = all_arcs(n, n)
    found = set()
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            fp_arcs = frozenset(combo)
            if combo:
                fp = wide_closure(combo, check_stability=False)
            else:
                fp = zero_fingerprint(n)
            if fp.arcs == fp_arcs:
                found.add(TubeWideFingerprint(n, fp_arcs))
    return frozenset(found)


# ---------------------------------------------------------------------------
# rigid completion and sequence extraction

def bongartz_complete(part_a, part_b):
    """Complete two compatible rigid sets to one rigid generator.

    Requires Ext(a, b) = 0 for all a in the first set, b in the second.
    The returned rigid set generates the same wide closure as the union;
    the search prefers keeping the second set and adding middle terms of
    the semi-universal extensions below elements of the first.  Ext is
    taken from projective presentations, so the search runs on the
    linear-algebra oracle alone.
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
    members = closure_members(union, n, 2 * n)
    semi = []
    for b in part_b:
        for a in part_a:
            if ext(b, a) != 0:
                for summands in extension_middles(b, a):
                    for arc in summands:
                        if is_exceptional(arc) and arc not in semi:
                            semi.append(arc)
    pool = [x for x in semi if x in members and x not in part_b]
    for x in part_a + sorted(members, key=lambda a: a.sort_key()):
        if is_exceptional(x) and x not in pool and x not in part_b:
            pool.append(x)
    base = tuple(part_b)
    for size in range(0, min(len(pool), n) + 1):
        for extra in itertools.combinations(range(len(pool)), size):
            cand = sorted(set(base) | {pool[i] for i in extra}, key=lambda a: a.sort_key())
            if not is_rigid_set(cand, ext):
                continue
            if wide_closure(cand, check_stability=False) == target:
                return tuple(cand)
    raise AssertionError("no rigid completion found in the closure")


def extract_exc_sequence(f: TubeWideFingerprint):
    """Greedy exceptional sequence generating an exc fingerprint.

    Picks the least member, restricts to its right perpendicular among
    the members, and repeats; the class independence of the members
    bounds the number of steps by the rank.  The result is returned in
    the usual order (vanishing from later to earlier) and is checked to
    regenerate the fingerprint.
    """
    n = f.rank
    if not f.exc:
        raise ValueError("fingerprint is not exceptional-side, no sequence exists")
    uni = tube_universe(n)
    target = uni.mask(f.arcs)
    members = target
    greedy = []
    while members:
        i = next(_bits(members))
        greedy.append(uni.objects[i])
        if len(greedy) > n:
            raise AssertionError("extraction exceeded the rank bound")
        members &= uni.right[i]
    if linalg.rank([list(a.factor_counts()) for a in greedy]) != len(greedy):
        raise AssertionError("extracted classes are dependent")
    seq = tuple(reversed(greedy))
    if not is_exc_sequence(seq):
        raise AssertionError("greedy extraction produced a non-sequence")
    if uni.double_perp(uni.mask(seq)) != target:
        raise AssertionError("extracted sequence does not regenerate the subcategory")
    return seq


def exc_perp_decompose(e: Arc):
    """Split the right perpendicular of an exceptional arc.

    With S the top simple of e and m its length, the perpendicular is
    the orthogonal of the simples S, tau S, ..., tau^{m-1} S joined with
    the wide closure of tau S, ..., tau^{m-1} S.  Returns a membership
    predicate for the first block (on arcs of length at most the rank)
    and the fingerprint arcs of the second.
    """
    if not is_exceptional(e):
        raise ValueError("arc is not exceptional")
    n = e.rank
    uni = tube_universe(n)
    ladder = [Arc(n, (e.top - k) % n, 1) for k in range(e.length)]
    block1 = frozenset(uni.members(uni.right_perp(uni.mask(ladder))))
    block2 = frozenset(uni.members(uni.double_perp(uni.mask(ladder[1:]))))
    return (lambda x: x in block1), block2
