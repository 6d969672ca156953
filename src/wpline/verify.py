"""Acceptance suite: thirteen checks with pinned expected values.

Each criterion function returns a report dict; run_all drives them in
order, and a criterion that raises fails alone.  Expected values are
frozen here, not recomputed from the code under test; independent
oracles (the symmetric noncrossing-partition counter, the alternate Ext
path, the brute-force enumeration) guard the classification-driven
results.
"""

from __future__ import annotations

import functools
import hashlib
import time
from itertools import combinations, permutations, product

from . import tube, widposet
from .grading import make_line
from .ktheory import (abs_length, class_of, cox_of, coxeter_element,
                      euler_form, nc_leq)
from .sheaves import (OrdinaryTorsion, TorsionArc, ext_dim_sheaf, ext_dim_sheaf_alt,
                      hom_dim_sheaf, perp_membership, sheaf_sort_key)
from .tube import Arc
from .widposet import (build_poset, cinv_snapshot, default_window,
                       enumerate_wid_c, poset_dot, poset_json, sheaf_universe,
                       window_universe)

TUBE_COUNTS = {1: 2, 2: 6, 3: 20, 4: 70, 5: 252}

# SHA-256 of the DOT bytes, frozen after the structural assertions of
# criterion 9 passed; the bytes are the CLI golden tests/golden/poset_w2.dot.
GOLDEN_DOT_W2_SHA256 = "0b3566184ebcc78d45806e1dbba682c41c4652a94c288ed4aa36d52061c412c1"


def noncrossing_partitions(m: int) -> list:
    """Noncrossing set partitions of range(m), as tuples of sorted tuples
    listed by their smallest labels.  The block of the smallest label
    picks its other members; the labels strictly between consecutive
    members, and those after the last one, form intervals that no other
    block may leave, so each interval is partitioned on its own."""
    memo = {}

    def parts(lo, hi):
        """Noncrossing partitions of range(lo, hi)."""
        out = memo.get((lo, hi))
        if out is None:
            out = [] if lo < hi else [()]
            for k in range(hi - lo):
                for chosen in combinations(range(lo + 1, hi), k):
                    cuts = (lo,) + chosen + (hi,)
                    gaps = [parts(a + 1, b) for a, b in zip(cuts, cuts[1:])]
                    for split in product(*gaps):
                        out.append(((lo,) + chosen,) + sum(split, ()))
            memo[lo, hi] = out
        return out

    return parts(0, m)


def _blocks_cross(a, b) -> bool:
    merged = sorted([(x, 0) for x in a] + [(x, 1) for x in b])
    switches = sum(1 for i in range(1, len(merged))
                   if merged[i][1] != merged[i - 1][1])
    return switches >= 3


@functools.cache
def noncrossing_symmetric_count(n: int) -> int:
    """Partitions of 2n cyclic labels, invariant under the half-turn,
    with no two blocks interleaving.  Independent of the tube module.

    Only noncrossing partitions are generated; each one counted is
    asserted to have no crossing pair of blocks.  The count is cached per
    n, so a process counts once however often verify runs."""
    m = 2 * n
    count = 0
    for blocks in noncrossing_partitions(m):
        key = frozenset(frozenset(b) for b in blocks)
        shifted = frozenset(frozenset((x + n) % m for x in b) for b in blocks)
        if key != shifted:
            continue
        assert not any(_blocks_cross(a, b)
                       for i, a in enumerate(blocks) for b in blocks[i + 1:]), blocks
        count += 1
    return count


def _report(name, ok, t0, detail):
    return {"name": name, "ok": bool(ok), "seconds": round(time.monotonic() - t0, 3),
            "detail": detail}


def criterion_1():
    """Tube lattice counts for ranks 1..5 against the frozen table and
    the independent symmetric noncrossing counter."""
    t0 = time.monotonic()
    sizes = {n: len(tube.enumerate_wide(n)) for n in range(1, 6)}
    nc = {n: noncrossing_symmetric_count(n) for n in range(1, 6)}
    elapsed = time.monotonic() - t0
    ok = sizes == TUBE_COUNTS and nc == TUBE_COUNTS and elapsed <= 60.0
    return _report("tube lattice counts 1..5", ok, t0,
                   f"sizes={sizes} noncrossing={nc} elapsed={elapsed:.1f}s")


def criterion_2():
    """Rank-2 tube: exactly the six known subcategories."""
    t0 = time.monotonic()
    got = {f.arcs for f in tube.enumerate_wide(2)}
    expected = {
        frozenset(),
        frozenset({Arc(2, 0, 1)}),
        frozenset({Arc(2, 1, 1)}),
        frozenset({Arc(2, 0, 2)}),
        frozenset({Arc(2, 1, 2)}),
        frozenset({Arc(2, 0, 1), Arc(2, 1, 1), Arc(2, 0, 2), Arc(2, 1, 2)}),
    }
    return _report("rank-2 tube subcategory list", got == expected, t0,
                   f"{len(got)} subcategories")


def criterion_3():
    """Perpendicular pairing is a mutually inverse bijection between
    the two halves of the lattice, ranks up to 4."""
    t0 = time.monotonic()
    bad = 0
    checked = 0
    for n in range(1, 5):
        lattice = tube.tube_lattice(n)
        image = set()
        for m in lattice:
            checked += 1
            partner = tube.perp_pair(n, m)
            image.add(partner)
            if tube.perp_pair(n, partner) != m or tube.is_exc(n, partner) == tube.is_exc(n, m):
                bad += 1
        if image != set(lattice):
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed <= 10.0
    return _report("perpendicular involution ranks 1..4", ok, t0,
                   f"fingerprints checked={checked} bad={bad} elapsed={elapsed:.1f}s")


def criterion_4():
    """Classification-driven enumeration equals the exhaustive scan."""
    t0 = time.monotonic()
    ok = all(tube.enumerate_wide(n) == tube.enumerate_wide_bruteforce(n)
             for n in range(1, 4))
    return _report("brute-force enumeration ranks 1..3", ok, t0, "ranks 1..3 exact")


def _sample_pairs():
    """Every ordered pair of objects of the default window universes of
    the lines 2 and 2,3, with the ordinary points 1 and 2 declared and
    stalks of lengths 2 and 3 at point 1."""
    out = []
    for weights in ((2,), (2, 3)):
        line = make_line(weights)
        universe = sheaf_universe(line, *default_window(line), ("1", "2"))
        universe += tuple(OrdinaryTorsion(line, "1", length) for length in (2, 3))
        out.extend((a, b) for a in universe for b in universe)
    return out


def criterion_5():
    """Two independent Ext paths agree on at least 200 pairs."""
    t0 = time.monotonic()
    pairs = _sample_pairs()
    bad = sum(ext_dim_sheaf(a, b) != ext_dim_sheaf_alt(a, b) for a, b in pairs)
    return _report("Serre duality double computation", bad == 0 and len(pairs) >= 200, t0,
                   f"pairs={len(pairs)} disagreements={bad}")


def criterion_6():
    """Euler form matches hom minus ext on the same samples."""
    t0 = time.monotonic()
    pairs = _sample_pairs()
    bad = sum(euler_form(a.line, class_of(a), class_of(b))
              != hom_dim_sheaf(a, b) - ext_dim_sheaf(a, b) for a, b in pairs)
    return _report("Euler form consistency", bad == 0 and len(pairs) >= 200, t0,
                   f"pairs={len(pairs)} disagreements={bad}")


def criterion_7():
    """Coxeter identity and full reflection length on three weight types."""
    t0 = time.monotonic()
    details = []
    ok = True
    for weights in ((1, 1), (2,), (2, 3)):
        line = make_line(weights)
        try:
            c = coxeter_element(line)
        except ArithmeticError as exc:
            ok = False
            details.append(f"{weights}: {exc}")
            continue
        m = line.k0_rank
        length = abs_length(c)
        if length != m:
            ok = False
        details.append(f"{weights}: m={m} abs_length={length}")
    return _report("Coxeter identity and length", ok, t0, "; ".join(details))


def criterion_8():
    """On the worked rank-2 window, inclusion of exceptional-side nodes
    matches the absolute order of their reflection products."""
    t0 = time.monotonic()
    line = make_line((2,))
    poset = build_poset(line, -2, 3)
    exc_nodes = [n for n in poset.nodes if n.exc_gens is not None]
    weyl = {}
    for n in exc_nodes:
        seq = tube.order_exc_sequence(poset.uni.members(n.exc_gens), hom_dim_sheaf,
                                      ext_dim_sheaf, sheaf_sort_key)
        weyl[n.name] = cox_of(line, seq)
    bad = []
    for u in exc_nodes:
        for v in exc_nodes:
            incl = u.mask & ~v.mask == 0
            nc = nc_leq(weyl[u.name], weyl[v.name])
            if incl != nc:
                bad.append((u.name, v.name, incl, nc))
    mats = [w.matrix for w in weyl.values()]
    injective = len(mats) == len(set(mats))
    ok = not bad and injective
    return _report("cox order isomorphism on the window", ok, t0,
                   f"exc nodes={len(exc_nodes)} mismatches={len(bad)} injective={injective}"
                   + (f" first={bad[0]}" if bad else ""))


def _family_covers():
    sfx = widposet._suffix
    fams = set()
    fams |= {(f"T0{sfx(n)}", f"T1{sfx(n)}") for n in range(-2, 3)}
    fams |= {(f"T0{sfx(n)}", f"T1{sfx(n - 1)}") for n in range(-1, 4)}
    fams |= {("S(inf,1)", f"T1{sfx(n)}") for n in (-2, 0, 2)}
    fams |= {("S(inf,0)", f"T1{sfx(n)}") for n in (-1, 1)}
    fams |= {(f"T0{sfx(n)}", "T2") for n in (-2, 0, 2)}
    fams |= {(f"T0{sfx(n)}", "T2(+1)") for n in (-1, 1, 3)}
    return fams


def criterion_9():
    """Rank-2 window poset: 20 nodes, the six transcribed cover
    families, 45 covers total, byte-identical DOT output."""
    t0 = time.monotonic()
    line = make_line((2,))
    poset = build_poset(line, -2, 3)
    names = {n.name for n in poset.nodes}
    expected_names = {"0", "coh", "tor(inf)",
                      "S(inf,0)", "S(inf,1)", "S[2](inf,0)", "S[2](inf,1)",
                      "T2", "T2(+1)"}
    expected_names |= {"T0" + widposet._suffix(n) for n in range(-2, 4)}
    expected_names |= {"T1" + widposet._suffix(n) for n in range(-2, 3)}
    covers = {tuple(c) for c in poset.covers()}
    dot = poset_dot(poset)
    problems = []
    if names != expected_names:
        problems.append(f"names off: extra={sorted(names - expected_names)} "
                        f"missing={sorted(expected_names - names)}")
    if len(covers) != 45:
        problems.append(f"cover count {len(covers)} != 45")
    missing_fams = _family_covers() - covers
    if missing_fams:
        problems.append(f"missing family covers {sorted(missing_fams)}")
    if poset.undecidable:
        problems.append(f"undecidable: {poset.undecidable[:2]}")
    if hashlib.sha256(dot.encode()).hexdigest() != GOLDEN_DOT_W2_SHA256:
        problems.append("DOT differs from golden")
    return _report("rank-2 window Hasse diagram", not problems, t0,
                   "; ".join(problems) if problems else "20 nodes, 45 covers, DOT golden")


def criterion_10():
    """Unweighted line: declared-universe support lattice glued to the
    chain-free family of single bundle classes."""
    t0 = time.monotonic()
    line = make_line((1, 1))
    poset = build_poset(line, -2, 3, ("0", "1"))
    names = {n.name for n in poset.nodes}
    bundle_names = {f"<O({k:+d})>" if k else "<O(0)>" for k in range(-2, 4)}
    expected = {"0", "coh", "tor(0)", "tor(1)", "tor(0,1)"} | bundle_names
    problems = []
    if names != expected:
        problems.append(f"names {sorted(names)}")
    bundles = [n for n in poset.nodes if n.name in bundle_names]
    for i, u in enumerate(bundles):
        for v in bundles[i + 1:]:
            if u.mask & ~v.mask == 0 or v.mask & ~u.mask == 0:
                problems.append(f"{u.name} comparable with {v.name}")
    by_name = {n.name: n.mask for n in poset.nodes}
    for n in poset.nodes:
        if not (by_name["0"] & ~n.mask == 0 and n.mask & ~by_name["coh"] == 0):
            problems.append(f"{n.name} outside bounds")
    a, b, ab = by_name["tor(0)"], by_name["tor(1)"], by_name["tor(0,1)"]
    if not (a & ~ab == 0 and a != ab and b & ~ab == 0 and b != ab and a & ~b != 0):
        problems.append("support lattice shape off")
    if poset.undecidable:
        problems.append("undecidable pairs")
    return _report("unweighted line decomposition", not problems, t0,
                   "; ".join(problems) if problems else f"{len(names)} nodes")


def order_tag_problems(poset, doc) -> list:
    """Each ordered pair of nodes from its masks, generators and invariant
    data alone: every verdict that applies must equal snapshot inclusion,
    every inclusion must have one, and ord_tags must be the verdicts that
    hold, the data's alone on an invariant-only upper node they certify."""
    problems, tags = [], {}
    for u, v in permutations(poset.nodes, 2):
        inside, verdicts = u.mask | v.mask == v.mask, {}
        if u.exc_gens is not None:
            verdicts["exc"] = u.exc_gens | v.mask == v.mask
        if u.cinv is not None and v.cinv is not None:
            a, b = u.cinv, v.cinv
            verdicts["cinv"] = (all(x | y == y for x, y in zip(a.per_point, b.per_point))
                                and a.ordinary_support <= b.ordinary_support
                                and (b.contains_bundle or not a.contains_bundle))
        problems.extend(f"{m} verdict on {u.name} < {v.name} is {ok}, inclusion {inside}"
                        for m, ok in verdicts.items() if ok != inside)
        if inside and not verdicts:
            problems.append(f"no verdict on {u.name} < {v.name}")
        if v.exc_gens is None and verdicts.get("cinv"):
            verdicts.pop("exc", None)
        if inside and any(verdicts.values()):
            tags[f"{u.name}<{v.name}"] = [m for m, ok in verdicts.items() if ok]
    return problems + ["ord_tags differ from the verdicts"] * (doc["ord_tags"] != tags)


def criterion_11():
    """On both acceptance posets, order_tag_problems finds nothing: the
    generators and invariant data decide and tag every inclusion."""
    t0 = time.monotonic()
    problems = []
    for weights, window, ids in (((2,), (-2, 3), ()), ((1, 1), (-2, 3), ("0", "1"))):
        poset = build_poset(make_line(weights), window[0], window[1], ids)
        problems += [f"{weights}: {p}" for p in order_tag_problems(poset, poset_json(poset))]
    return _report("pushout certificate", not problems, t0,
                   "; ".join(problems) if problems else "every inclusion tagged, both posets")


def _exc_sequence(n: int, mask: int) -> tuple:
    """The least rigid generator, in walk order, of an exc mask of
    tube_lattice(n), ordered into an exceptional sequence."""
    uni = tube.tube_universe(n)
    gens = next(g for g, perp in uni.rigid_subsets(mask) if uni.left_perp(perp) == mask)
    return tube.order_exc_sequence(uni.members(gens))


def _cinv_defining_sheaves(line, data):
    """An exceptional sequence generating the defining torsion data of a
    bundle-containing shift-invariant subcategory, as sheaves: the
    independent path to its members."""
    return [TorsionArc(line, i, arc)
            for mask, i in zip(data.defining_exc, line.weighted_indices())
            for arc in _exc_sequence(line.weights[i], mask)]


def criterion_12():
    """Shift-invariant data on the rank-2 line with two declared ordinary
    points: 24 torsion-only and 3 with a bundle.  One with a bundle is
    T^perp, T an exceptional sequence from the tube's rigid-set walk (the
    paper's first theorem).  Its snapshot in the sheaf universe, the right
    perpendicular of its defining torsion read off the sheaf closed forms,
    is checked three ways: it holds exactly the objects perpendicular to T
    (perp_membership, pair by pair); at each weighted point its arcs are
    the datum's per_point mask, which tube.perp_pair built inside the
    tube; and its left perpendicular there is the defining data."""
    t0 = time.monotonic()
    line = make_line((2,))
    ids = ("0", "1")
    data = enumerate_wid_c(line, ids)
    torsion_only = [d for d in data if not d.contains_bundle]
    with_bundle = [d for d in data if d.contains_bundle]
    problems = []
    if len(torsion_only) != 24:
        problems.append(f"torsion-only count {len(torsion_only)} != 24")
    if len(with_bundle) != 3:
        problems.append(f"bundle-side count {len(with_bundle)} != 3")
    uni = window_universe(line, -2, 3, ids)
    offset = widposet.torsion_offsets(uni)
    for d in with_bundle:
        gens = _cinv_defining_sheaves(line, d)
        members = cinv_snapshot(line, d, uni, offset)
        direct = frozenset(x for x in uni.objects if perp_membership(x, gens))
        if direct != frozenset(uni.members(members)):
            problems.append("window membership differs between paths")
        left = uni.left_perp(members)
        for m, exc, i in zip(d.per_point, d.defining_exc, line.weighted_indices()):
            full = tube.tube_universe(line.weights[i]).full
            if (members >> offset[i]) & full != m:
                problems.append(f"members at point {i} are not the perpendicular data")
            if (left >> offset[i]) & full != exc:
                problems.append(f"left perp at point {i} does not regenerate the data")
    return _report("shift-invariant round trip", not problems, t0,
                   "; ".join(problems) if problems else "27 subcategories, round trips exact")


def criterion_13():
    """Completion and ordering succeed for every admissible rigid pair
    in tubes of rank up to 4."""
    t0 = time.monotonic()
    checked = 0
    problems = []
    for n in range(1, 5):
        uni = tube.tube_universe(n)
        rigid_sets = [uni.members(g) for g, _ in uni.rigid_subsets(uni.full)]
        for part_a in rigid_sets:
            for part_b in rigid_sets:
                if any(tube.ext_dim(a, b) != 0 for a in part_a for b in part_b):
                    continue
                checked += 1
                if not part_a and not part_b:
                    continue
                try:
                    comp = tube.bongartz_complete(part_a, part_b)
                    if not tube.is_rigid_set(comp, tube.ext_dim):
                        problems.append(f"rank {n}: completion not rigid")
                    elif tube.wide_closure(comp) != tube.wide_closure(set(part_a) | set(part_b)):
                        problems.append(f"rank {n}: closure mismatch for {part_a}+{part_b}")
                    else:
                        tube.order_exc_sequence(comp)
                except (AssertionError, ValueError) as exc_err:
                    problems.append(f"rank {n}: {part_a}+{part_b}: {exc_err}")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed <= 30.0
    return _report("completion and ordering ranks 1..4", ok, t0,
                   f"pairs={checked} elapsed={elapsed:.1f}s"
                   + ("; " + problems[0] if problems else ""))


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12, criterion_13]


def run_all():
    """Every criterion's report; one that raises fails alone, its report
    named after the function and its detail the exception."""
    reports = []
    for criterion in CRITERIA:
        t0 = time.monotonic()
        try:
            reports.append(criterion())
        except Exception as exc:
            reports.append(_report(criterion.__name__, False, t0, f"{type(exc).__name__}: {exc}"))
    return reports
