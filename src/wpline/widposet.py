"""Wide subcategories of the sheaf category and their inclusion poset.

A subcategory is represented by its snapshot: the set of members inside
a finite universe of indecomposables (line bundles in a degree window,
torsion arcs of length up to the point weight, declared ordinary
simples).  Nodes come from two enumerations that overlap: closures of
rigid sets of exceptional window objects, and the shift-invariant
subcategories built from per-point tube data.  The order is snapshot
containment, and its Hasse diagram is computed once per poset; every
comparable pair is tagged by which of the two mechanisms certifies it,
and the tagged union generating the whole order is the pushout property
checked by the acceptance suite.

Snapshots come from the perpendicular calculus of tube.Universe, built
once per poset over the window enlarged by two canonical degrees on
each side; the window itself and the one-degree enlargement are masks
in it.  Closures of rigid sets are double perpendiculars, and bundles
of a shift-invariant subcategory form the right perpendicular of its
defining torsion sequence.

Window faithfulness: a rigid set whose closure needs bundles outside
the window (its snapshot would misrepresent the subcategory) is
detected by recomputing against an enlarged window and dropped; nodes
that remain ambiguous after enlargement are reported as undecidable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import tube
from .grading import WeightData
from .ktheory import k_rank
from .nilpotent import Arc
from .sheaves import (LineBundle, OrdinaryTorsion, TorsionArc, ext_dim_sheaf,
                      format_sheaf, hom_dim_sheaf, is_exceptional_sheaf,
                      sheaf_sort_key)
from .tube import TubeWideFingerprint


@dataclass(frozen=True)
class CInvData:
    """Shift-invariant subcategory: per weighted point a tube
    fingerprint, ordinary-point support, and whether bundles belong.

    Bundle-containing ones are right perpendiculars of per-point
    exceptional torsion data (kept in defining_exc); their per-point
    fingerprints are the perpendicular partners of that data.
    """

    per_point: tuple
    ordinary_support: frozenset
    contains_bundle: bool
    defining_exc: tuple | None

    def sort_key(self):
        fps = tuple(tuple(a.sort_key() for a in fp.sorted_arcs()) for fp in self.per_point)
        return (self.contains_bundle, fps, tuple(sorted(self.ordinary_support)))


def default_window(line: WeightData):
    """Degree window covering the worked configurations: -2..3 in units
    of the finest generator degree."""
    g = line.p // max(line.weights) if max(line.weights) > 1 else 1
    return (-2 * g, 3 * g)


def window_degrees(line: WeightData, lo: int, hi: int):
    """All grading elements with degree in [lo, hi]."""
    out = []
    ranges = [range(line.weights[i]) for i in range(line.n)]
    p = line.p
    for coeffs in itertools.product(*ranges):
        base = sum(coeffs[i] * (p // line.weights[i]) for i in range(line.n))
        c_lo = -((base - lo) // p)
        while base + c_lo * p >= lo:
            c_lo -= 1
        c = c_lo + 1
        while base + c * p <= hi:
            out.append(line.element(coeffs, c))
            c += 1
    out.sort(key=lambda l: (l.degree(), l.coeffs, l.c_part))
    return out


def sheaf_universe(line: WeightData, lo: int, hi: int, universe_ids):
    """Window universe: bundles by degree, torsion arcs up to the point
    weight, one simple per declared ordinary point."""
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
    return tube.Universe(sheaf_universe(line, lo, hi, universe_ids),
                         hom_dim_sheaf, ext_dim_sheaf)


# ---------------------------------------------------------------------------
# shift-invariant enumeration

def _fp_sort_key(fp: TubeWideFingerprint):
    return (len(fp.arcs), tuple(a.sort_key() for a in fp.sorted_arcs()))


def c_inv_from_torsion_exc(line: WeightData, exc_fps, universe_ids) -> CInvData:
    """Bundle-containing shift-invariant subcategory perpendicular to the
    given per-weighted-point exceptional fingerprints."""
    exc_fps = tuple(exc_fps)
    widx = line.weighted_indices()
    if len(exc_fps) != len(widx):
        raise ValueError("one fingerprint per weighted point required")
    for fp in exc_fps:
        if not fp.exc:
            raise ValueError("defining data must be exceptional-side")
    per_point = tuple(tube.perp_pair(fp) for fp in exc_fps)
    return CInvData(per_point, frozenset(universe_ids), True, exc_fps)


def enumerate_wid_c(line: WeightData, universe_ids, max_weight: int = 6):
    """All shift-invariant wide subcategories over the declared universe.

    Torsion-only members are products of per-point tube fingerprints and
    ordinary on/off support; the rest are perpendiculars of per-point
    exceptional data and always contain bundles.  The two halves are
    disjoint.
    """
    widx = line.weighted_indices()
    for i in widx:
        if line.weights[i] > max_weight:
            raise ValueError("point weight above the enumeration bound")
    lattices = [sorted(tube.enumerate_wide(line.weights[i]), key=_fp_sort_key)
                for i in widx]
    ids = sorted(universe_ids)
    out = []
    for fps in itertools.product(*lattices):
        for r in range(len(ids) + 1):
            for chosen in itertools.combinations(ids, r):
                out.append(CInvData(tuple(fps), frozenset(chosen), False, None))
    exc_sides = [[fp for fp in lat if fp.exc] for lat in lattices]
    for fps in itertools.product(*exc_sides):
        out.append(c_inv_from_torsion_exc(line, fps, universe_ids))
    return out


def _cinv_defining_sheaves(line: WeightData, data: CInvData):
    gens = []
    for k, i in enumerate(line.weighted_indices()):
        for arc in tube.extract_exc_sequence(data.defining_exc[k]):
            gens.append(TorsionArc(line, i, arc))
    return gens


def cinv_snapshot(line: WeightData, data: CInvData, uni: tube.Universe) -> int:
    """Members of a shift-invariant subcategory, as a mask over the universe."""
    widx = line.weighted_indices()
    bundles = 0
    if data.contains_bundle:
        bundles = uni.right_perp(uni.mask(_cinv_defining_sheaves(line, data)))
    members = 0
    for i, u in enumerate(uni.objects):
        if isinstance(u, TorsionArc):
            inside = u.arc in data.per_point[widx.index(u.point)].arcs
        elif isinstance(u, OrdinaryTorsion):
            inside = u.point_id in data.ordinary_support
        else:
            inside = bundles >> i & 1
        members |= inside << i
    return members


def exc_snapshot(gens, uni: tube.Universe, within: int | None = None) -> int:
    """Members of the closure of a rigid set inside `within` (default:
    the whole universe), as a mask: the double perpendicular."""
    return uni.double_perp(uni.mask(gens), within)


def _cinv_leq(a: CInvData, b: CInvData) -> bool:
    """Inclusion of shift-invariant subcategories, read off their data."""
    return all(fa.arcs <= fb.arcs for fa, fb in zip(a.per_point, b.per_point)) \
        and a.ordinary_support <= b.ordinary_support \
        and (not a.contains_bundle or b.contains_bundle)


# ---------------------------------------------------------------------------
# the poset

@dataclass(frozen=True)
class PosetNode:
    name: str
    snapshot: frozenset
    exc_gens: frozenset | None
    cinv: CInvData | None


class WidPoset:
    def __init__(self, line, lo, hi, universe_ids, universe, nodes, clipped, undecidable,
                 covers):
        self.line = line
        self.lo = lo
        self.hi = hi
        self.universe_ids = tuple(sorted(universe_ids))
        self.universe = universe
        self.nodes = nodes
        self.clipped = clipped
        self.undecidable = undecidable
        self._covers = sorted(covers)
        self._by_name = {n.name: n for n in nodes}

    def node(self, name: str) -> PosetNode:
        return self._by_name[name]

    def leq(self, u: PosetNode, v: PosetNode) -> bool:
        return u.snapshot <= v.snapshot

    def tags(self, u: PosetNode, v: PosetNode):
        """Certifying mechanisms for u <= v."""
        return tuple(m for m, ok in _mechanisms(u, v).items() if ok)

    def comparable_pairs(self):
        for u in self.nodes:
            for v in self.nodes:
                if u is not v and self.leq(u, v):
                    yield u, v

    def covers(self):
        """Cover pairs (lower, upper) by name, sorted."""
        return list(self._covers)

    def certificate_ok(self) -> bool:
        """Every comparable pair is reachable through tagged steps."""
        tagged = {(u.name, v.name) for u, v in self.comparable_pairs()
                  if self.tags(u, v)}
        reach = {n.name: {n.name} for n in self.nodes}
        changed = True
        while changed:
            changed = False
            for a, b in tagged:
                for src, seen in reach.items():
                    if a in seen and b not in seen:
                        seen.add(b)
                        changed = True
        return all(v.name in reach[u.name] for u, v in self.comparable_pairs())


def _mechanisms(u: PosetNode, v: PosetNode) -> dict:
    """Verdict on u <= v of each window-independent mechanism that applies
    to both nodes: containment of the generators, or of the invariant
    data."""
    out = {}
    if u.exc_gens is not None and v.exc_gens is not None:
        out["exc"] = u.exc_gens <= v.snapshot
    if u.cinv is not None and v.cinv is not None:
        out["cinv"] = _cinv_leq(u.cinv, v.cinv)
    return out


def _suffix(k: int) -> str:
    return "" if k == 0 else f"({k:+d})"


def _torsion_only_name(line, data: CInvData) -> str:
    parts = []
    for k, i in enumerate(line.weighted_indices()):
        fp = data.per_point[k]
        if not fp.arcs:
            continue
        label = line.points[i]
        if not fp.exc:
            if len(fp.arcs) == len(tube.all_arcs(fp.rank, fp.rank)):
                parts.append(f"tor({label})")
                continue
        arcs = fp.sorted_arcs()
        if len(arcs) == 1 and arcs[0].length == 1:
            parts.append(f"S({label},{arcs[0].socle})")
        elif len(arcs) == 1:
            parts.append(f"S[{arcs[0].length}]({label},{arcs[0].top})")
        else:
            desc = "+".join(f"{a.socle}.{a.length}" for a in arcs)
            parts.append(f"tor({label}:{desc})")
    if data.ordinary_support:
        parts.append("tor(" + ",".join(sorted(data.ordinary_support)) + ")")
    return "&".join(parts) if parts else "0"


def _cinv_name(line, data: CInvData) -> str:
    if not data.contains_bundle:
        return _torsion_only_name(line, data)
    if all(not fp.arcs for fp in data.defining_exc):
        return "coh"
    widx = line.weighted_indices()
    if len(widx) == 1 and line.weights[widx[0]] == 2:
        arcs = data.defining_exc[0].sorted_arcs()
        if len(arcs) == 1 and arcs[0].length == 1:
            return "T2" if arcs[0].socle == 0 else "T2(+1)"
    inner = _torsion_only_name(line, CInvData(data.defining_exc, frozenset(), False, None))
    return f"perp({inner})"


def _exc_name(line, snapshot) -> str:
    bundles = sorted((x for x in snapshot if isinstance(x, LineBundle)),
                     key=sheaf_sort_key)
    torsion = [x for x in snapshot if not isinstance(x, LineBundle)]
    widx = line.weighted_indices()
    if not snapshot:
        return "0"
    if not widx and len(bundles) == 1 and not torsion:
        k = bundles[0].degree.degree()
        return f"<O({k:+d})>" if k else "<O(0)>"
    if len(widx) == 1 and bundles:
        degs = [b.degree.degree() for b in bundles]
        if len(bundles) == 1 and not torsion:
            return "T0" + _suffix(degs[0])
        if len(bundles) == 2 and degs[1] == degs[0] + 1 and len(torsion) == 1:
            return "T1" + _suffix(degs[0])
    body = ";".join(format_sheaf(x) for x in sorted(snapshot, key=sheaf_sort_key))
    return "W{" + body + "}"


def build_poset(line: WeightData, lo: int, hi: int, universe_ids=()) -> WidPoset:
    if len(line.weighted_indices()) > 2:
        raise ValueError("poset construction needs bundle support "
                         "(at most two weighted points)")
    p = line.p
    uni = window_universe(line, lo - 2 * p, hi + 2 * p, universe_ids)
    window = uni.mask(sheaf_universe(line, lo, hi, universe_ids))
    big = uni.mask(sheaf_universe(line, lo - p, hi + p, universe_ids))
    exceptional = uni.mask(u for u in uni.members(window) if is_exceptional_sheaf(u))

    def gens_key(gens):
        return (len(gens), tuple(sheaf_sort_key(g) for g in gens))

    # records are keyed by the window snapshot, as a mask
    undecidable = []
    records = {}
    for data in enumerate_wid_c(line, universe_ids):
        members = cinv_snapshot(line, data, uni)
        rec = records.setdefault(members & window, {"exc": None, "cinv": None})
        if rec["cinv"] is None:
            rec["cinv"] = data
            rec["big_cinv"] = members & big
    cinv_keys = set(records)

    # Exceptional closures are resolved against the margin-enlarged
    # universe: a closure entirely inside the window is a node of its
    # own; one reaching into the margin is either the window slice of a
    # shift-invariant node or not representable at this window scale.
    clipped = []
    for gens in uni.rigid_subsets(exceptional, max_size=k_rank(line)):
        snap1 = exc_snapshot(gens, uni, big)
        inside = snap1 & ~window == 0
        key = snap1 & window
        if not inside and key not in cinv_keys:
            clipped.append(gens)
            continue
        snap2 = exc_snapshot(gens, uni)
        if inside:
            if snap2 != snap1:
                undecidable.append(
                    "members of a closure keep appearing under enlargement: "
                    + ";".join(format_sheaf(g) for g in gens))
                continue
        elif snap2 & window != key:
            undecidable.append(
                "window slice of a closure changes under enlargement: "
                + ";".join(format_sheaf(g) for g in gens))
            continue
        rec = records.setdefault(key, {"exc": None, "cinv": None})
        if rec["exc"] is None or gens_key(gens) < gens_key(rec["exc"]):
            rec["exc"] = gens
            rec["big_exc"] = snap1

    for snap, rec in records.items():
        if rec["exc"] is not None and rec["cinv"] is not None \
                and rec["big_exc"] != rec["big_cinv"]:
            undecidable.append(
                "window cannot separate two subcategories sharing a snapshot: "
                "{" + ";".join(format_sheaf(x) for x in uni.members(snap)) + "}")

    nodes = []
    masks = sorted(records, key=lambda m: (m.bit_count(),
                                           [sheaf_sort_key(x) for x in uni.members(m)]))
    used_names = set()
    for mask in masks:
        rec = records[mask]
        snap = frozenset(uni.members(mask))
        if rec["cinv"] is not None:
            name = _cinv_name(line, rec["cinv"])
        else:
            name = _exc_name(line, snap)
        if name in used_names:
            undecidable.append(f"name collision at {name}")
            i = 2
            while f"{name}#{i}" in used_names:
                i += 1
            name = f"{name}#{i}"
        used_names.add(name)
        gens = None if rec["exc"] is None else frozenset(rec["exc"])
        nodes.append(PosetNode(name, snap, gens, rec["cinv"]))

    # Snapshot order must agree with the window-independent mechanisms
    # wherever one applies; a comparable pair seen by neither mechanism
    # cannot be trusted at window scale.
    above, covers = tube.inclusion_order(masks)
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if i == j:
                continue
            small = bool(above[i] >> j & 1)
            verdicts = _mechanisms(u, v)
            for mechanism, truth in verdicts.items():
                if small != truth:
                    source = "generators" if mechanism == "exc" else "invariant data"
                    undecidable.append(
                        f"order of {u.name} and {v.name} disagrees with {source}")
            if small and not verdicts:
                undecidable.append(
                    f"order of {u.name} and {v.name} undecidable at window scale")

    return WidPoset(line, lo, hi, universe_ids, uni.members(window), tuple(nodes),
                    tuple(clipped), tuple(undecidable),
                    [(nodes[i].name, nodes[j].name) for i, j in covers])


# ---------------------------------------------------------------------------
# emission

def poset_dot(poset: WidPoset) -> str:
    covers = poset.covers()
    below = {n.name: [] for n in poset.nodes}
    for a, b in covers:
        below[b].append(a)
    heights = {}

    def height(name):
        if name not in heights:
            heights[name] = 1 + max((height(a) for a in below[name]), default=-1)
        return heights[name]

    for n in poset.nodes:
        height(n.name)
    lines = ["digraph wid {", "  rankdir=BT;"]
    for name in sorted(heights):
        lines.append(f'  "{name}";')
    for h in sorted(set(heights.values())):
        group = sorted(n for n, hh in heights.items() if hh == h)
        lines.append("  { rank=same; " + " ".join(f'"{n}";' for n in group) + " }")
    for a, b in covers:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_json(poset: WidPoset) -> dict:
    nodes = []
    for n in sorted(poset.nodes, key=lambda x: x.name):
        nodes.append({
            "name": n.name,
            "exc": n.exc_gens is not None,
            "c_invariant": n.cinv is not None,
            "members": [format_sheaf(x) for x in sorted(n.snapshot, key=sheaf_sort_key)],
        })
    tags = {}
    for u, v in poset.comparable_pairs():
        t = poset.tags(u, v)
        if t:
            tags[f"{u.name}<{v.name}"] = list(t)
    return {
        "schema": 1,
        "weights": list(poset.line.weights),
        "window": [poset.lo, poset.hi],
        "universe": list(poset.universe_ids),
        "nodes": nodes,
        "covers": [list(c) for c in poset.covers()],
        "ord_tags": {k: tags[k] for k in sorted(tags)},
        "undecidable": list(poset.undecidable),
    }


# ---------------------------------------------------------------------------
# perpendicular splitting at an exceptional torsion sheaf

def exc_torsion_perp_decompose(line: WeightData, e: TorsionArc,
                               uni: tube.Universe | None = None):
    """Split the right perpendicular of an exceptional torsion sheaf into
    a reduced-weight sheaf part and a finite tube part, and verify the
    two blocks have no Hom or Ext between them inside the universe
    (default: the window -2p..2p with no ordinary points)."""
    if not is_exceptional_sheaf(e):
        raise ValueError("torsion sheaf is not exceptional")
    if uni is None:
        uni = window_universe(line, -2 * line.p, 2 * line.p, ())
    _, block_b = tube.exc_perp_decompose(e.arc)
    weight = line.weights[e.point]
    reduced = tuple(w - e.arc.length if i == e.point else w
                    for i, w in enumerate(line.weights))
    block_tube = uni.mask(TorsionArc(line, e.point, a) for a in block_b)
    ladder = uni.mask(TorsionArc(line, e.point, Arc(weight, (e.arc.top - k) % weight, 1))
                      for k in range(e.arc.length))
    perp = uni.right_perp(uni.mask([e]))
    block_sheaf = perp & uni.right_perp(ladder)
    orthogonal = uni.right_perp(block_tube) & uni.left_perp(block_tube)
    return {
        "reduced_weights": reduced,
        "block_tube": list(uni.members(block_tube)),
        "block_sheaf_members": list(uni.members(block_sheaf)),
        "cross_orthogonal": block_sheaf & ~orthogonal == 0,
        "perp_covered": perp & ~(block_sheaf | block_tube) == 0,
    }
