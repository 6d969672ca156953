"""Command-line front end.

Verbs: classify, hom, ext, tube-enum, cox, perp, poset, verify.  All
emission is deterministic: JSON documents carry "schema": 1 and sorted
keys, DOT output is the fixed Hasse layout, identical inputs give
byte-identical bytes.  Exit codes: 0 success, 1 verification failure,
2 usage errors, 3 window-scale undecidability.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import tube
from .grading import line_invariants, make_line, normalize, parse_weights
from .ktheory import abs_length, canonical_interval_sequence, cox_of, coxeter_element, euler_matrix
from .nilpotent import Arc
from .sheaves import (OrdinaryTorsion, TorsionArc, ext_dim_sheaf, format_sheaf,
                      hom_dim_sheaf, is_exceptional_sheaf, line_bundle, perp_membership,
                      simple_at, stack_at)
from .widposet import (build_poset, default_window, exc_torsion_perp_decompose,
                       poset_dot, poset_json, sheaf_universe)


def _emit_json(doc) -> str:
    import json  # only JSON output pays for the module
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _resolve_point(line, token: str) -> int:
    if token in line.points:
        return line.points.index(token)
    if re.fullmatch(r"-?\d+", token):
        idx = int(token)
        if 0 <= idx < line.n:
            return idx
    raise ValueError(f"unknown point {token!r}")


def parse_sheaf(line, text: str):
    """Sheaf notation: O, O(k), O(l1,..,ln;c), S(point,j), S[m](point,j),
    arc(point,socle,length), ord(id,length)."""
    t = text.strip()
    if t == "O":
        return line_bundle(line)
    m = re.fullmatch(r"O\((-?\d+)\)", t)
    if m:
        k = int(m.group(1))
        widx = line.weighted_indices()
        if widx:
            coeffs = [0] * line.n
            coeffs[widx[0]] = k
            return line_bundle(line, normalize(line, coeffs, 0))
        return line_bundle(line, normalize(line, (0,) * line.n, k))
    m = re.fullmatch(r"O\(([-0-9,\s]+);(-?\d+)\)", t)
    if m:
        coeffs = [int(x) for x in m.group(1).split(",")]
        if len(coeffs) != line.n:
            raise ValueError("coefficient count must match the point count")
        return line_bundle(line, normalize(line, coeffs, int(m.group(2))))
    m = re.fullmatch(r"S\((\w+),(-?\d+)\)", t)
    if m:
        return simple_at(line, _resolve_point(line, m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"S\[(\d+)\]\((\w+),(-?\d+)\)", t)
    if m:
        return stack_at(line, _resolve_point(line, m.group(2)),
                        int(m.group(3)), int(m.group(1)))
    m = re.fullmatch(r"arc\((\w+),(-?\d+),(\d+)\)", t)
    if m:
        i = _resolve_point(line, m.group(1))
        p = line.weights[i]
        return TorsionArc(line, i, Arc(p, int(m.group(2)) % p, int(m.group(3))))
    m = re.fullmatch(r"ord\((\w+),(\d+)\)", t)
    if m:
        return OrdinaryTorsion(line, m.group(1), int(m.group(2)))
    raise ValueError(f"cannot parse sheaf {text!r}")


# a `;` inside parentheses, as in O(l1,..,ln;c), does not split a sheaf list
_SHEAF_LIST = re.compile(r";(?![^(]*\))")


def _parse_window(text: str):
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text.strip())
    if not m:
        raise ValueError("window must look like -2..3")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValueError("window bounds out of order")
    return lo, hi


def _line_from_args(args):
    return make_line(parse_weights(args.weights))


def _cmd_classify(args) -> int:
    line = _line_from_args(args)
    c, omega, kind = line_invariants(line)
    if args.format == "json":
        doc = {
            "schema": 1,
            "weights": list(line.weights),
            "type": kind.name.lower(),
            "delta_omega": omega.degree(),
            "delta_c": c.degree(),
            "omega": str(omega),
            "c": str(c),
        }
        sys.stdout.write(_emit_json(doc))
    else:
        sys.stdout.write(f"{kind.name.lower()}, delta(omega)={omega.degree()}\n")
    return 0


def _cmd_hom(args) -> int:
    ext = args.verb == "ext"
    line = _line_from_args(args)
    a = parse_sheaf(line, args.src)
    b = parse_sheaf(line, args.dst)
    d = ext_dim_sheaf(a, b) if ext else hom_dim_sheaf(a, b)
    if args.format == "json":
        doc = {"schema": 1, "from": format_sheaf(a), "to": format_sheaf(b),
               "dim": d, "space": "Ext1" if ext else "Hom"}
        sys.stdout.write(_emit_json(doc))
    else:
        name = "Ext1" if ext else "Hom"
        sys.stdout.write(f"dim {name}({format_sheaf(a)}, {format_sheaf(b)}) = {d}\n")
    return 0


def _cmd_tube_enum(args) -> int:
    n = args.rank
    lattice = tube.tube_lattice(n)
    members = [tube.tube_universe(n).members(m) for m in lattice]
    if args.format == "json":
        doc = {"schema": 1, "rank": n, "count": len(lattice),
               "subcategories": [{"arcs": [[a.socle, a.length] for a in arcs],
                                  "exc": tube.is_exc(n, m)}
                                 for m, arcs in zip(lattice, members)]}
        sys.stdout.write(_emit_json(doc))
    elif args.format == "dot":
        lines = ["digraph tube {", "  rankdir=BT;"]
        names = ["{" + ",".join(f"{a.socle}.{a.length}" for a in arcs) + "}" for arcs in members]
        lines.extend(f'  "{name}";' for name in names)
        _, covers = tube.inclusion_order(lattice, tube.holders(lattice))
        lines.extend(f'  "{names[i]}" -> "{names[j]}";' for i, j in covers)
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        for m, arcs in zip(lattice, members):
            shown = ",".join(f"({a.socle},{a.length})" for a in arcs)
            side = "exc" if tube.is_exc(n, m) else "non-exc"
            sys.stdout.write(f"{{{shown}}} {side}\n")
        sys.stdout.write(f"total {len(lattice)}\n")
    return 0


def _cmd_cox(args) -> int:
    line = _line_from_args(args)
    if args.sheaves is not None:
        seq = tuple(parse_sheaf(line, s) for s in _SHEAF_LIST.split(args.sheaves))
        w = cox_of(line, seq)
        labels = [format_sheaf(s) for s in seq]
    else:
        w = coxeter_element(line)
        labels = [format_sheaf(s) for s in canonical_interval_sequence(line)]
    doc = {
        "schema": 1,
        "weights": list(line.weights),
        "sequence": labels,
        "matrix": [list(row) for row in w.matrix],
        "abs_length": abs_length(w),
        "euler_matrix": [list(r) for r in euler_matrix(line)],
    }
    if args.format == "json":
        sys.stdout.write(_emit_json(doc))
    else:
        sys.stdout.write("sequence: " + "; ".join(labels) + "\n")
        for row in w.matrix:
            sys.stdout.write("  " + " ".join(f"{x:4d}" for x in row) + "\n")
        sys.stdout.write(f"abs_length = {doc['abs_length']}\n")
    return 0


def _cmd_perp(args) -> int:
    line = _line_from_args(args)
    gens = tuple(parse_sheaf(line, s) for s in _SHEAF_LIST.split(args.sheaves))
    lo, hi = _parse_window(args.window) if args.window else default_window(line)
    ids = tuple(x for x in args.universe.split(",") if x) if args.universe else ()
    objects = sheaf_universe(line, lo, hi, ids)
    members = [x for x in objects if perp_membership(x, gens)]
    doc = {
        "schema": 1,
        "weights": list(line.weights),
        "window": [lo, hi],
        "generators": [format_sheaf(g) for g in gens],
        "members": [format_sheaf(x) for x in members],
    }
    if len(gens) == 1 and isinstance(gens[0], TorsionArc) and is_exceptional_sheaf(gens[0]):
        rep = exc_torsion_perp_decompose(line, gens[0], members)
        doc["decomposition"] = {
            "reduced_weights": list(rep["reduced_weights"]),
            "tube_block": [format_sheaf(x) for x in rep["block_tube"]],
            "sheaf_block": [format_sheaf(x) for x in rep["block_sheaf_members"]],
            "cross_orthogonal": rep["cross_orthogonal"],
        }
    if args.format == "text":
        sys.stdout.write("\n".join(doc["members"]) + "\n")
    else:
        sys.stdout.write(_emit_json(doc))
    return 0


def _cmd_poset(args) -> int:
    line = _line_from_args(args)
    lo, hi = _parse_window(args.window) if args.window else default_window(line)
    ids = tuple(x for x in args.universe.split(",") if x) if args.universe else ()
    poset = build_poset(line, lo, hi, ids)
    if poset.undecidable:
        report = {"schema": 1, "undecidable": list(poset.undecidable)}
        sys.stderr.write(_emit_json(report))
        return 3
    if args.format == "json":
        sys.stdout.write(_emit_json(poset_json(poset)))
    elif args.format == "text":
        for n in sorted(poset.nodes, key=lambda x: x.name):
            members = ", ".join(format_sheaf(x) for x in poset.uni.members(n.mask))
            sys.stdout.write(f"{n.name}: {members}\n")
        for a, b in poset.covers():
            sys.stdout.write(f"{a} < {b}\n")
    else:
        sys.stdout.write(poset_dot(poset))
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # only this verb loads the acceptance criteria
    reports = verify.run_all()
    passed = sum(1 for rep in reports if rep["ok"])
    if args.format == "json":
        doc = {"schema": 1, "criteria": reports, "passed": passed, "total": len(reports)}
        sys.stdout.write(_emit_json(doc))
    else:
        for i, rep in enumerate(reports, start=1):
            status = "PASS" if rep["ok"] else "FAIL"
            sys.stdout.write(f"[{i:2d}] {status} {rep['name']} "
                             f"({rep['seconds']}s) {rep['detail']}\n")
        sys.stdout.write(f"{passed}/{len(reports)} criteria passed\n")
    return 0 if passed == len(reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wpline",
                                 description="wide subcategory calculator for "
                                             "domestic weighted projective lines")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_common(p, fmt_default="text", formats=("text", "json")):
        p.add_argument("--format", choices=formats, default=fmt_default)

    p = sub.add_parser("classify", help="weight type and degree invariants")
    p.set_defaults(run=_cmd_classify)
    p.add_argument("--weights", required=True)
    add_common(p)

    for verb in ("hom", "ext"):
        p = sub.add_parser(verb, help=f"{verb} dimension between sheaves")
        p.set_defaults(run=_cmd_hom)
        p.add_argument("--weights", required=True)
        p.add_argument("--from", dest="src", required=True)
        p.add_argument("--to", dest="dst", required=True)
        add_common(p)

    p = sub.add_parser("tube-enum", help="wide subcategories of one tube")
    p.set_defaults(run=_cmd_tube_enum)
    p.add_argument("--rank", type=int, required=True)
    add_common(p, formats=("text", "json", "dot"))

    p = sub.add_parser("cox", help="reflection product of a sequence")
    p.set_defaults(run=_cmd_cox)
    p.add_argument("--weights", required=True)
    p.add_argument("--sheaves")
    add_common(p, "json")

    p = sub.add_parser("perp", help="right perpendicular members in a window")
    p.set_defaults(run=_cmd_perp)
    p.add_argument("--weights", required=True)
    p.add_argument("--sheaves", required=True)
    p.add_argument("--window")
    p.add_argument("--universe")
    add_common(p, "json")

    p = sub.add_parser("poset", help="inclusion poset over a shift window")
    p.set_defaults(run=_cmd_poset)
    p.add_argument("--weights", required=True)
    p.add_argument("--window")
    p.add_argument("--universe")
    add_common(p, "dot", ("text", "json", "dot"))

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.set_defaults(run=_cmd_verify)
    add_common(p)
    return ap


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a window like -2..3 starts with a dash, which the parser would
    # otherwise read as an option
    merged = []
    i = 0
    while i < len(argv):
        if argv[i] == "--window" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    ap = _build_parser()
    try:
        args = ap.parse_args(merged)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.run(args)
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
