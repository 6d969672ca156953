"""Wide subcategories of the sheaf category and their inclusion poset.

A subcategory is represented by its snapshot: the set of members inside
a finite universe of indecomposables (line bundles in a degree window,
torsion arcs of length up to the point weight, declared ordinary
simples).  Nodes come from two enumerations that overlap: closures of
rigid sets of exceptional window objects, and the shift-invariant
subcategories built from per-point tube data.  The order is snapshot
containment, decided once per poset as ANDs of per-member holder bitsets
over node indices and kept as one row per node.  The build checks it
against the verdicts of generators ("exc") and of invariant data
("cinv", from a data mask), so a decided pair's tags follow from the
kinds of its two nodes; the acceptance suite recomputes them pair by
pair.  The Hasse diagram stays the cover pairs of node indices that
tube.inclusion_order lists, named only when the poset is emitted.

Snapshots come from the perpendicular calculus of tube.Universe, built
once per poset over the window enlarged by universe_margin degrees on
each side, its rows filled pair by pair from the closed forms
hom_dim_sheaf and ext_dim_sheaf, with no sheaf shifted.  The closure of a rigid
set is the left perpendicular of the right one the rigid-set search
carries, taken once per distinct perpendicular; a shift-invariant
subcategory with bundles is the right perpendicular of its defining
torsion, in one step.  Sets stay masks over a universe sorted by
sheaf_sort_key, so ascending index tuples order generators and nodes as
sort-key tuples would.  Rigid sets come in level order (by size, then
by sorted indices), so the first one found for a node is its least
generator.  A node holds its members and generators as masks only;
names, messages and emitted members join labels formatted once per
universe object and once per tube lattice mask, and readers that want
sheaf objects take a mask's members from the poset's universe.
Shift-invariant data are tube lattice masks: sorted by (socle, length)
as in tube_universe, a point's arcs form one block of the universe,
entered by one shift.

Exactness (Geigle-Lenzing).  With p = delta(c): Hom(O(x), O(y)) = 0
exactly when y - x is not effective, a non-effective element has degree
at most delta(omega) + p, and Ext(O(x), O(y)) = D Hom(O(y), O(x + omega)).
So O(y)^perp holds arcs shorter than their weight and bundles of degree
delta(y) - p .. delta(y) + delta(omega) + p, and the bundles of perp O(z)
have degree delta(z) - delta(omega) - p .. delta(z) + p.  The margin is
m = max(p, 2p + delta(omega)).  For a rigid set G of exceptional window
objects with a bundle, G^perp lies in the universe, so the left
perpendicular of the carried one is exactly the closure W(G) on the
universe.  If G^perp holds a bundle, every bundle of W(G) lies within m
of the window, so a closure reaching past it is clipped, exactly; if
not, W(G) is perpendicular to torsion, hence shift-invariant, and by the
paper's first theorem equals its invariant record on the universe.  If
G is torsion, so is W(G), and its snapshot holds no bundle.  A check
that fails is reported as undecidable.  Every snapshot is then the
window slice of its node, so an exceptional node lies below a node v
exactly when v's snapshot holds its generators; the order check tests
that, and the data of two invariant nodes, against snapshot inclusion.
"""

from __future__ import annotations

import itertools

from . import tube
from ._record import Record
from .grading import WeightData
from .sheaves import (LineBundle, OrdinaryTorsion, TorsionArc, ext_dim_sheaf, format_sheaf,
                      hom_dim_sheaf, is_exceptional_sheaf, perp_membership, sheaf_sort_key)
from .tube import Arc


class CInvData(Record):
    """Shift-invariant subcategory: per weighted point a tube lattice
    mask, ordinary-point support, and whether bundles belong.

    Bundle-containing ones are right perpendiculars of per-point
    exceptional tube masks (kept in defining_exc); their per-point
    masks are the perpendicular partners of that data.
    """

    _fields = ("per_point", "ordinary_support", "contains_bundle", "defining_exc")


def default_window(line: WeightData):
    """-2..3 in units of the finest generator degree g, widened upward to
    at least p = delta(c) degrees: c moves a bundle's degree by p, so a
    narrower window misses whole c-orbits of line bundles and cannot
    separate the shift-invariant subcategories that differ only there."""
    g = line.p // max(line.weights)
    return (-2 * g, max(3 * g, line.p - 2 * g - 1))


def window_degrees(line: WeightData, lo: int, hi: int):
    """All grading elements with degree in [lo, hi], in no set order."""
    out = []
    p = line.p
    for coeffs in itertools.product(*map(range, line.weights)):
        base = sum(a * (p // w) for a, w in zip(coeffs, line.weights))
        # the c with lo <= base + c * p <= hi
        cs = range(-((base - lo) // p), (hi - base) // p + 1)
        out.extend(line.element(coeffs, c) for c in cs)
    return out


def sheaf_universe(line: WeightData, lo: int, hi: int, universe_ids):
    """Window universe: bundles by degree, torsion arcs up to the point
    weight, one simple per declared ordinary point."""
    if len(set(universe_ids)) != len(universe_ids):
        raise ValueError("ordinary point ids must be distinct")
    out = []
    if len(line.weighted_indices()) <= 2:
        out.extend(LineBundle(line, l) for l in window_degrees(line, lo, hi))
    for i in line.weighted_indices():
        p = line.weights[i]
        out.extend(TorsionArc(line, i, Arc(p, s, l))
                   for s in range(p) for l in range(1, p + 1))
    out.extend(OrdinaryTorsion(line, q, 1) for q in sorted(universe_ids))
    out.sort(key=sheaf_sort_key)
    return tuple(out)


def window_universe(line: WeightData, lo: int, hi: int, universe_ids) -> tube.Universe:
    """The perpendicular calculus over the window universe."""
    return tube.Universe(sheaf_universe(line, lo, hi, universe_ids), hom_dim_sheaf, ext_dim_sheaf)


# ---------------------------------------------------------------------------
# shift-invariant enumeration

def c_inv_from_torsion_exc(line: WeightData, exc_masks, universe_ids) -> CInvData:
    """Bundle-containing shift-invariant subcategory perpendicular to the
    given per-weighted-point exceptional tube lattice masks."""
    exc_masks = tuple(exc_masks)
    ranks = [line.weights[i] for i in line.weighted_indices()]
    if len(exc_masks) != len(ranks):
        raise ValueError("one tube mask per weighted point required")
    if not all(map(tube.is_exc, ranks, exc_masks)):
        raise ValueError("defining data must be exceptional-side")
    per_point = tuple(map(tube.perp_pair, ranks, exc_masks))
    return CInvData(per_point, frozenset(universe_ids), True, exc_masks)


def enumerate_wid_c(line: WeightData, universe_ids):
    """All shift-invariant wide subcategories over the declared universe.

    Torsion-only members are products of per-point tube lattice masks and
    ordinary on/off support; the rest are perpendiculars of per-point
    exceptional data and always contain bundles.  The two halves are
    disjoint.
    """
    ranks = [line.weights[i] for i in line.weighted_indices()]
    lattices = [tube.tube_lattice(n) for n in ranks]
    ids = sorted(universe_ids)
    out = []
    for masks in itertools.product(*lattices):
        for r in range(len(ids) + 1):
            for chosen in itertools.combinations(ids, r):
                out.append(CInvData(masks, frozenset(chosen), False, None))
    exc_sides = [[m for m in lat if tube.is_exc(n, m)] for n, lat in zip(ranks, lattices)]
    for masks in itertools.product(*exc_sides):
        out.append(c_inv_from_torsion_exc(line, masks, universe_ids))
    return out


def torsion_offsets(uni: tube.Universe) -> dict:
    """Per weighted point, the index of its first arc in a window universe
    (its arcs there are tube_universe(weight).objects in order), and per
    ordinary point id, the index of its simple."""
    out = {}
    for i, u in enumerate(uni.objects):
        if not isinstance(u, LineBundle):
            out.setdefault(u.point if isinstance(u, TorsionArc) else u.point_id, i)
    return out


def cinv_snapshot(line: WeightData, data: CInvData, uni: tube.Universe, offset: dict) -> int:
    """Members of a shift-invariant subcategory, as a mask over the
    universe, whose torsion_offsets is `offset`.  A bundle-containing one
    is the right perpendicular of its defining torsion subcategory, which
    is that of any exceptional sequence generating it (the paper's first
    theorem; Geigle-Lenzing); a torsion-only one is its data."""
    if data.contains_bundle:
        return uni.right_perp(_arcs_mask(line, data.defining_exc, offset))
    return _cinv_data_mask(line, data, uni, offset)


def _arcs_mask(line: WeightData, masks, offset: dict) -> int:
    """One tube lattice mask per weighted point, shifted into the universe."""
    return sum(m << offset[i] for m, i in zip(masks, line.weighted_indices()))


def _cinv_data_mask(line: WeightData, data: CInvData, uni: tube.Universe, offset: dict) -> int:
    """Per-point arcs and ordinary support as a mask, plus one bit past the
    universe when bundles belong: inclusion of masks is inclusion."""
    return (_arcs_mask(line, data.per_point, offset)
            + sum(1 << offset[q] for q in data.ordinary_support)
            | data.contains_bundle << len(uni.objects))


# ---------------------------------------------------------------------------
# the poset

class PosetNode(Record):
    """Members and least generators (None unless exceptional) as masks
    over the universe of the poset that holds the node."""

    __slots__ = _fields = ("name", "mask", "exc_gens", "cinv")


class WidPoset:
    """Nodes by snapshot size; bit j of above[i] when node j strictly contains
    node i, the only node-bitset table.  Nodes and clipped generator sets
    are masks over the build universe uni, whose objects are named by
    labels.  index_covers are the cover pairs (i, j) of node indices, in
    ascending order of i, as tube.inclusion_order lists them; i < j, as a
    strict superset comes later."""

    def __init__(self, line, lo, hi, universe_ids, uni, labels, nodes, clipped, undecidable,
                 covers, above):
        self.line = line
        self.lo = lo
        self.hi = hi
        self.universe_ids = tuple(sorted(universe_ids))
        self.uni = uni
        self.labels = labels
        self.nodes = nodes
        self.clipped = clipped
        self.undecidable = undecidable
        self.index_covers = covers
        self.above = above

    def covers(self):
        """Cover pairs (lower, upper) by name, sorted.  Names are distinct,
        so with r(i) the rank of node i's name among the N names, the
        ints r(i) * N + r(j) sort as the name pairs do, and faster."""
        names = sorted(u.name for u in self.nodes)
        rank, n = {name: r for r, name in enumerate(names)}, len(names)
        r = [rank[u.name] for u in self.nodes]
        return [(names[k // n], names[k % n])
                for k in sorted([r[i] * n + r[j] for i, j in self.index_covers])]

    def member_labels(self, node) -> list:
        """The labels of a node's members, in universe order."""
        return [self.labels[i] for i in tube.bits(node.mask)]


def _suffix(k: int) -> str:
    return "" if k == 0 else f"({k:+d})"


def _tube_parts(line) -> list:
    """Per weighted point, the name part of each nonzero tube lattice
    mask: every part a node name can hold, formatted once per poset."""
    out = []
    for i in line.weighted_indices():
        label, uni = line.points[i], tube.tube_universe(line.weights[i])
        parts = {}
        for mask in filter(None, tube.tube_lattice(line.weights[i])):
            arcs = uni.members(mask)
            if mask == uni.full:
                parts[mask] = f"tor({label})"
            elif len(arcs) == 1:
                parts[mask] = format_sheaf(TorsionArc(line, i, arcs[0]))
            else:
                parts[mask] = f"tor({label}:{'+'.join(f'{a.socle}.{a.length}' for a in arcs)})"
        out.append(parts)
    return out


def _torsion_only_name(per_point, ordinary_support, parts) -> str:
    named = [part[mask] for part, mask in zip(parts, per_point) if mask]
    if ordinary_support:
        named.append("tor(" + ",".join(sorted(ordinary_support)) + ")")
    return "&".join(named) if named else "0"


def _cinv_name(line, data: CInvData, parts) -> str:
    if not data.contains_bundle:
        return _torsion_only_name(data.per_point, data.ordinary_support, parts)
    if not any(data.defining_exc):
        return "coh"
    widx = line.weighted_indices()
    if len(widx) == 1 and line.weights[widx[0]] == 2:
        arcs = tube.tube_universe(2).members(data.defining_exc[0])
        if len(arcs) == 1 and arcs[0].length == 1:
            return "T2" if arcs[0].socle == 0 else "T2(+1)"
    return f"perp({_torsion_only_name(data.defining_exc, (), parts)})"


def _exc_name(line, objects, labels, bundles, mask) -> str:
    """Name of a closure from its mask over a universe sorted by
    sheaf_sort_key, whose objects carry labels and whose bundles are the
    set bits of bundles."""
    held = mask & bundles
    torsion = mask ^ held
    widx = line.weighted_indices()
    if not widx and held.bit_count() == 1 and not torsion:
        k = objects[held.bit_length() - 1].degree.degree()
        return f"<O({k:+d})>" if k else "<O(0)>"
    if len(widx) == 1 and held:
        degs = [objects[i].degree.degree() for i in tube.bits(held)]
        if len(degs) == 1 and not torsion:
            return "T0" + _suffix(degs[0])
        if len(degs) == 2 and degs[1] == degs[0] + 1 and torsion.bit_count() == 1:
            return "T1" + _suffix(degs[0])
    return "W{" + ";".join(labels[i] for i in tube.bits(mask)) + "}"


def universe_margin(line: WeightData) -> int:
    """Degrees added on each side of the window: max(p, 2p + delta(omega))."""
    return max(line.p, 2 * line.p + line.dualizing().degree())


def build_poset(line: WeightData, lo: int, hi: int, universe_ids=()) -> WidPoset:
    if len(line.weighted_indices()) > 2:
        raise ValueError("poset construction needs bundle support "
                         "(at most two weighted points)")
    # listed first: tube_lattice rejects a rank above tube.MAX_RANK before
    # the universe is built
    cinv = enumerate_wid_c(line, universe_ids)
    m = universe_margin(line)
    # sheaf_universe is sorted by sheaf_sort_key, so the build orders masks by index
    uni = window_universe(line, lo - m, hi + m, universe_ids)
    window = sum(1 << i for i, x in enumerate(uni.objects)
                 if not isinstance(x, LineBundle) or lo <= x.degree.degree() <= hi)
    outside = uni.full ^ window
    exceptional = sum(1 << i for i in tube.bits(window) if is_exceptional_sheaf(uni.objects[i]))
    offset = torsion_offsets(uni)
    bundles = sum(1 << i for i, x in enumerate(uni.objects) if isinstance(x, LineBundle))
    # names are read off tables: one label per universe object, one part
    # per nonzero tube lattice mask of each weighted point
    labels = [format_sheaf(x) for x in uni.objects]
    parts = _tube_parts(line)

    # invariant data, members and data mask by window slice, the first one
    # kept; a torsion-only snapshot is its data mask
    undecidable, invariant = [], {}
    for data in cinv:
        members = cinv_snapshot(line, data, uni, offset)
        data_mask = _cinv_data_mask(line, data, uni, offset) if data.contains_bundle else members
        first = invariant.setdefault(members & window, (data, members, data_mask))[0]
        if first is not data:
            undecidable.append(f"window cannot separate {_cinv_name(line, first, parts)} "
                               f"and {_cinv_name(line, data, parts)}")

    # Closures are exact on the universe, so each case of the module
    # docstring is a test; a failed one is reported, never guessed.  Rigid
    # sets come in level order, so the first one of a node is its least.
    clipped, closures, least = [], {}, {}
    for gens, perp in uni.rigid_subsets(exceptional):
        if perp not in closures:
            closures[perp] = uni.left_perp(perp)
        key = snap = closures[perp]
        if not gens & bundles:
            problem = "torsion generators close on a bundle" if snap & bundles else None
        elif not perp & bundles:
            key = snap & window
            problem = None if invariant.get(key, (None, None, 0))[1] == snap \
                else "closure of a bundle-free perpendicular is not shift-invariant"
        elif snap & outside:
            clipped.append(gens)
            continue
        else:
            problem = "window slice of a closure with bundles is an invariant one" \
                if snap in invariant else None
        if problem:
            shown = ";".join(labels[i] for i in tube.bits(gens))
            undecidable.append(f"{problem}: {shown}")
            continue
        least.setdefault(key, gens)

    nodes, data_masks = [], []
    masks = sorted(invariant.keys() | least.keys(), key=tube.level_key)
    used_names = set()
    for mask in masks:
        data, _, data_mask = invariant.get(mask, (None, None, 0))
        name = _cinv_name(line, data, parts) if data is not None \
            else _exc_name(line, uni.objects, labels, bundles, mask)
        if name in used_names:
            undecidable.append(f"name collision at {name}")
            name = next(f"{name}#{i}" for i in itertools.count(2)
                        if f"{name}#{i}" not in used_names)
        used_names.add(name)
        nodes.append(PosetNode(name, mask, least.get(mask), data))
        data_masks.append(data_mask)

    # Snapshot order must agree with the generators of an exceptional node
    # against every node, and with the data of two invariant nodes.
    held = tube.holders(masks)
    above, covers = tube.inclusion_order(masks, held)
    everyone = (1 << len(nodes)) - 1
    cinv_nodes = sum(1 << i for i, n in enumerate(nodes) if n.cinv is not None)
    held_data = tube.holders(data_masks)
    # As in tube.inclusion_order, bits leave a row by XOR, never by AND
    # with a complement; by_data lies in cinv_nodes.
    for i, u in enumerate(nodes):
        by_gens = 0 if u.exc_gens is None else tube.meet(held, u.exc_gens, everyone)
        by_data = 0 if u.cinv is None else tube.meet(held_data, data_masks[i], cinv_nodes)
        by_exc = everyone ^ 1 << i if u.exc_gens is not None else 0
        by_cinv = cinv_nodes ^ 1 << i if u.cinv is not None else 0
        up = above[i]
        flags = (("disagrees with generators", (by_gens ^ up) & by_exc),
                 ("disagrees with invariant data", (by_data ^ up) & by_cinv),
                 ("undecidable at window scale", up ^ (up & (by_exc | by_cinv))))
        for j in tube.bits(flags[0][1] | flags[1][1] | flags[2][1]):
            undecidable.extend(f"order of {u.name} and {nodes[j].name} {what}"
                               for what, flagged in flags if flagged >> j & 1)

    return WidPoset(line, lo, hi, universe_ids, uni, labels, tuple(nodes), tuple(clipped),
                    tuple(undecidable), covers, above)


# ---------------------------------------------------------------------------
# emission

def poset_dot(poset: WidPoset) -> str:
    # A cover (i, j) has i < j and comes after every cover below i, so one
    # forward pass leaves each node one above its highest lower cover; a
    # node of height h has a lower cover of height h - 1, so no group is empty.
    height = [0] * len(poset.nodes)
    for i, j in poset.index_covers:
        if height[j] <= height[i]:
            height[j] = height[i] + 1
    groups = [[] for _ in range(max(height) + 1)]
    lines = ["digraph wid {", "  rankdir=BT;"]
    for name, h in sorted(zip((n.name for n in poset.nodes), height)):
        lines.append(f'  "{name}";')
        groups[h].append(f'"{name}";')
    lines.extend("  { rank=same; " + " ".join(group) + " }" for group in groups)
    lines.extend(f'  "{a}" -> "{b}";' for a, b in poset.covers())
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_json(poset: WidPoset) -> dict:
    """A pair's tags are the verdicts of the build's order check, read off
    node kinds: "exc" when the lower node has generators, unless it is
    invariant and the upper one invariant-only, and "cinv" when both are
    invariant.  Only a passed check makes them verdicts: else ValueError."""
    if poset.undecidable:
        raise ValueError("poset has undecidable entries; its order carries no tags")
    cinv_nodes = sum(1 << i for i, n in enumerate(poset.nodes) if n.cinv is not None)
    cinv_only = sum(1 << i for i, n in enumerate(poset.nodes) if n.exc_gens is None)
    tags = {}
    for i, u in enumerate(poset.nodes):
        # the nodes above u split by their set of tags
        up = poset.above[i]
        exc = 0 if u.exc_gens is None else up
        cinv = 0 if u.cinv is None else up & cinv_nodes
        exc ^= exc & cinv & cinv_only
        both = exc & cinv
        for mask, found in ((exc ^ both, ("exc",)), (cinv ^ both, ("cinv",)),
                            (both, ("exc", "cinv"))):
            for j in tube.bits(mask):
                tags[f"{u.name}<{poset.nodes[j].name}"] = list(found)
    return {
        "schema": 1,
        "weights": list(poset.line.weights),
        "window": [poset.lo, poset.hi],
        "universe": list(poset.universe_ids),
        "nodes": [{"name": n.name, "exc": n.exc_gens is not None,
                   "c_invariant": n.cinv is not None, "members": poset.member_labels(n)}
                  for n in sorted(poset.nodes, key=lambda x: x.name)],
        "covers": [list(c) for c in poset.covers()],
        "ord_tags": tags,
        "undecidable": [],
    }


# ---------------------------------------------------------------------------
# perpendicular splitting at an exceptional torsion sheaf

def exc_torsion_perp_decompose(line: WeightData, e: TorsionArc, perp):
    """Split the right perpendicular of an exceptional torsion sheaf, given
    by its members among the window objects (sheaf_universe), into a
    reduced-weight sheaf part, the members perpendicular to every simple
    of e, and a tube part, the closure of those simples but the top one;
    verify the two blocks have no Hom or Ext between them."""
    if e.line is not line and e.line != line:
        raise ValueError("sheaf over a different line")
    if not is_exceptional_sheaf(e):
        raise ValueError("torsion sheaf is not exceptional")
    weight = line.weights[e.point]
    reduced = tuple(w - e.arc.length if i == e.point else w
                    for i, w in enumerate(line.weights))
    uni = tube.tube_universe(weight)
    ladder = [Arc(weight, s, 1) for s in e.arc.factors()]
    closure = uni.double_perp(uni.mask(ladder[:-1]))
    block_tube = [TorsionArc(line, e.point, a) for a in uni.members(closure)]
    simples = [TorsionArc(line, e.point, a) for a in ladder]
    block_sheaf = [x for x in perp if perp_membership(x, simples)]
    return {
        "reduced_weights": reduced,
        "block_tube": block_tube,
        "block_sheaf_members": block_sheaf,
        "cross_orthogonal": all(perp_membership(x, (t,)) and perp_membership(t, (x,))
                                for x in block_sheaf for t in block_tube),
    }
