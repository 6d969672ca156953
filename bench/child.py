"""One benchmark request, run in a fresh interpreter.

    python3 bench/child.py [--trace] cli ARG...      wpline.cli.run(ARGS)
    python3 bench/child.py [--trace] closure N S     guarded wide_closure([Arc(N, S, N)])
    python3 bench/child.py [--trace] bruteforce N    tube.enumerate_wide_bruteforce(N)
    python3 bench/child.py reference N               tube.enumerate_wide(N)
    python3 bench/child.py [--trace] queries         a query stream read from stdin

`src/` must be on PYTHONPATH.  The result is one JSON object on stdout.
With --trace the wpline layers are wrapped (see tracing.py) before the
request runs and the aggregated spans ride along under "trace".
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _fingerprints(fps):
    return sorted(sorted([a.socle, a.length] for a in fp.arcs) for fp in fps)


def cli(*argv):
    from wpline import cli as wcli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = wcli.run(list(argv))
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def closure(n, s):
    from wpline import tube
    from wpline.nilpotent import Arc
    fp = tube.wide_closure([Arc(int(n), int(s), int(n))])
    return {"arcs": sorted([a.socle, a.length] for a in fp.arcs)}


def bruteforce(n):
    from wpline import tube
    return {"fps": _fingerprints(tube.enumerate_wide_bruteforce(int(n)))}


def reference(n):
    from wpline import tube
    return {"fps": _fingerprints(tube.enumerate_wide(int(n)))}


def _sheaf(line, spec):
    from wpline import sheaves
    from wpline.grading import normalize
    from wpline.nilpotent import Arc
    kind = spec[0]
    if kind == "O":
        return sheaves.line_bundle(line, normalize(line, spec[1], spec[2]))
    if kind == "T":
        p = line.weights[spec[1]]
        return sheaves.TorsionArc(line, spec[1], Arc(p, spec[2], spec[3]))
    return sheaves.OrdinaryTorsion(line, spec[1], spec[2])


def build_queries(stream):
    """Turn the generated stream into wpline objects: (kind, line, x, y)."""
    from wpline import ktheory, sheaves
    from wpline.grading import make_line, normalize
    lines = [make_line(w) for w in stream["lines"]]
    ops = []
    for op in stream["ops"]:
        line = lines[op[1]]
        if op[0] == "pair":
            ops.append(("pair", line, _sheaf(line, op[2]), _sheaf(line, op[3])))
        else:
            coeffs, c_part, k = op[2]
            step = normalize(line, coeffs, c_part)
            seq = [sheaves.shift(s, step) for s in ktheory.canonical_interval_sequence(line)]
            ops.append(("cox", line, seq[:k], seq))
    return ops


def run_queries(ops):
    """Answer each query in order; time each one and the whole stream.

    Functions are looked up on their modules at call time, so tracing
    wrappers installed after the imports still see every call."""
    from wpline import ktheory, sheaves
    clock = time.perf_counter
    lat, bad = [], []
    start = clock()
    for i, (kind, line, x, y) in enumerate(ops):
        t0 = clock()
        problem = None
        try:
            if kind == "pair":
                hom = sheaves.hom_dim_sheaf(x, y)
                ext = sheaves.ext_dim_sheaf(x, y)
                ext_alt = sheaves.ext_dim_sheaf_alt(x, y)
                euler = ktheory.euler_form(line, ktheory.class_of(x), ktheory.class_of(y))
                ok = ext == ext_alt and hom - ext == euler
            else:
                ok = ktheory.nc_leq(ktheory.cox_of(line, x), ktheory.cox_of(line, y))
            if not ok:
                problem = "output check failed"
        except Exception as exc:   # a crash fails this query only
            problem = f"{type(exc).__name__}: {exc}"
        lat.append(clock() - t0)
        if problem:
            bad.append([i, problem])
    return {"start": start, "end": clock(), "lat": lat,
            "kinds": [op[0] for op in ops], "bad": bad}


def main(argv):
    tracer = None
    if argv and argv[0] == "--trace":
        from tracing import Tracer
        argv = argv[1:]
        tracer = Tracer()
    verb, args = argv[0], argv[1:]
    if verb == "queries":
        ops = build_queries(json.load(sys.stdin))
        if tracer is not None:
            tracer.install()
        doc = run_queries(ops)
    else:
        if tracer is not None:
            tracer.install()
        doc = {"cli": cli, "closure": closure, "bruteforce": bruteforce,
               "reference": reference}[verb](*args)
    if tracer is not None:
        doc["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
