"""Benchmark of wpline: seeded workloads, checked outputs, per-layer tracing.

    python3 bench/run.py --workload poset|closure|queries --seed N --seconds S --trace 0|1
    python3 bench/run.py --selfcheck

The program is taken from src/ of the checkout this file sits in.  Every
request is one client in a closed loop: the next request starts only
after the previous one has finished, and only one process runs at a time.
A run first measures set-up time, then repeats whole passes of the
workload until the next pass would end past --seconds (at least one
pass).  Every output is checked; a crash, a timeout, a nonzero exit or a
wrong answer fails its operation.

--trace 0 reports the end-to-end metrics, each a median over the run,
with times in CPU-speed-corrected seconds (see SpeedClock).
--trace 1 runs one untraced pass and one pass with every public function
of the wpline layers wrapped (tracing.py), and reports the per-layer
metrics of the traced pass and the tracing overhead.  Human-readable
lines come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "poset_w2.dot"
RUN_LIMIT_S = 165.0          # a run must end within 180 s
SETUP_SAMPLES = 15

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def _per_layer_metrics():
    timed = {
        "cli": ["run"],
        "widposet": ["build_poset", "exc_snapshot", "cinv_snapshot", "enumerate_wid_c",
                     "covers", "poset_dot", "poset_json"],
        "sheaves": ["hom_dim_sheaf", "ext_dim_sheaf", "ext_dim_sheaf_alt", "perp_membership"],
        "grading": ["normalize"],
        "tube": ["wide_closure", "closure_members", "extension_middles",
                 "ext_dim_via_presentation", "perp_pair", "enumerate_wide",
                 "enumerate_wide_bruteforce"],
        "nilpotent": ["decompose", "composite_rank", "hom_basis", "pushout_middle"],
        "linalg": ["rank", "rref", "nullspace", "solve", "mat_mul"],
        "ktheory": ["cox_of", "abs_length", "nc_leq", "class_of", "euler_form"],
    }
    counted = {"sheaves": ["shift"], "tube": ["hom_dim", "ext_dim"],
               "nilpotent": ["kernel_rep", "cokernel_rep"]}
    extra = {
        "cli": [("cli.default_window.probes", "count"), ("cli.default_window.failed", "count")],
        "widposet": [("widposet.nodes", "count"), ("widposet.clipped", "count"),
                     ("widposet.undecidable", "count"),
                     ("widposet.exc_snapshot.tried", "count"),
                     ("widposet.exc_snapshot.kept", "count"),
                     ("widposet.exc_snapshot.useful_ratio", "ratio"),
                     ("widposet.covers.per_dot", "ratio")],
        "sheaves": [("sheaves.hom_dim_sheaf.distinct", "count"),
                    ("sheaves.hom_dim_sheaf.distinct_ratio", "ratio")],
        "tube": [("tube.closure_members.per_closure", "ratio")],
        "nilpotent": [("nilpotent.decompose.dim_sum", "count"),
                      ("nilpotent.composite_rank.per_decompose", "ratio")],
    }
    out = {}
    for layer in tracing.LAYERS:
        for fn in timed.get(layer, []):
            out[f"{layer}.{fn}.calls"] = "count"
            out[f"{layer}.{fn}.s"] = "s"
        for fn in counted.get(layer, []):
            out[f"{layer}.{fn}.calls"] = "count"
        out.update(extra.get(layer, []))
        out[f"{layer}.self_s"] = "s"
    out.update({"trace.pass_s": "s", "trace.untraced_pass_s": "s", "trace.overhead_s": "s"})
    return out


PER_LAYER = _per_layer_metrics()

# (numerator, denominator) of each ratio: counts or call counts
RATIOS = {
    "widposet.exc_snapshot.useful_ratio": ("widposet.exc_snapshot.kept", "widposet.exc_snapshot.tried"),
    "widposet.covers.per_dot": ("widposet.covers.calls", "widposet.poset_dot.calls"),
    "sheaves.hom_dim_sheaf.distinct_ratio": ("sheaves.hom_dim_sheaf.distinct", "sheaves.hom_dim_sheaf.calls"),
    "tube.closure_members.per_closure": ("tube.closure_members.calls", "tube.wide_closure.calls"),
    "nilpotent.composite_rank.per_decompose": ("nilpotent.composite_rank.calls", "nilpotent.decompose.calls"),
}


class RunOutOfTime(Exception):
    pass


class SpeedClock:
    """Wall time corrected for the speed the CPU runs at right now.

    On a shared host a vCPU can run 30-50% slower than usual for tens of
    seconds, because of load that is not ours.  That noise is as long as
    a run, so medians within a run cannot remove it.  While a child runs,
    the benchmark process, pinned to the child's CPU, wakes every
    PROBE_EVERY_S and times a fixed probe loop (about 1 ms in all, under
    1% of the CPU).  A time interval then counts REF_PROBE_S / probe seconds
    per second: seconds on a CPU that runs the probe in exactly
    REF_PROBE_S.  Raw wall times are printed beside the corrected ones.
    """

    PROBE_EVERY_S = 0.2
    REF_PROBE_S = 0.0005

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (end time, probe seconds)

    @staticmethod
    def _probe_loop():
        # the program's staple operations: tuple keys in a dict, Fraction
        # arithmetic, a sort; tracks its slowdowns better than bare integers
        table = {}
        acc = Fraction(0)
        third = Fraction(1, 3)
        for i in range(120):
            key = (i % 17, i % 5)
            table[key] = table.get(key, 0) + 1
            acc += third * (i % 7)
        sorted(table.items())

    def probe(self):
        best = None
        for _ in range(2):                  # the faster of two, to skip an interrupt
            t0 = time.perf_counter()
            self._probe_loop()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        self.samples.append((time.perf_counter(), best))

    def seconds(self, a: float, b: float) -> float:
        """Corrected length of [a, b]; each piece between probes takes the
        speed of the probe that ends it."""
        total, prev = 0.0, a
        for t, dt in self.samples:
            if t <= a:
                continue
            end = min(t, b)
            total += (end - prev) * self.REF_PROBE_S / dt
            prev = end
            if t >= b:
                return total
        dt = self.samples[-1][1] if self.samples else self.REF_PROBE_S
        return total + (b - prev) * self.REF_PROBE_S / dt


class Run:
    """One benchmark run: child processes, operation counts, the deadline."""

    def __init__(self, seed: int, seconds: float):
        self.start = time.perf_counter()
        self.deadline = self.start + RUN_LIMIT_S
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.clock = SpeedClock()
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        # A fixed hash seed per workload seed makes set iteration, and so
        # the work done, repeat exactly for the same seed.  Bytecode
        # caches are allowed, as for an installed program.
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                        PYTHONHASHSEED=str(seed % 4294967296))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # children inherit the CPU, so the probes measure the CPU they run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def spawn(self, args, stdin: bytes | None = None):
        """Run `python3 ARGS` to completion, probing the CPU speed meanwhile:
        (returncode, stdout, stderr, start, end)."""
        if time.perf_counter() >= self.deadline:
            raise RunOutOfTime("run deadline reached")
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, *args], env=self.env, cwd=ROOT,
                             stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            while True:
                try:
                    out, err = p.communicate(stdin, timeout=SpeedClock.PROBE_EVERY_S)
                    break
                except subprocess.TimeoutExpired:
                    stdin = None            # the rest of the input is still sent
                    self.clock.probe()
                    if time.perf_counter() >= self.deadline:
                        raise RunOutOfTime(f"timed out: {' '.join(map(str, args))}") from None
        except BaseException:               # timeout, interrupt or termination
            p.kill()
            p.communicate()
            raise
        t1 = time.perf_counter()
        self.clock.probe()
        return p.returncode, out, err, t0, t1

    def child(self, args, traced: bool, stdin: bytes | None = None):
        """Run bench/child.py; returns (its JSON document or None, stderr tail)."""
        rc, out, err, _, _ = self.spawn([str(CHILD), *(["--trace"] if traced else []), *args], stdin)
        if rc != 0:
            return None, f"exit {rc}: {err.decode(errors='replace')[-300:]}"
        return json.loads(out), ""

    def op(self, name: str, problem: str | None):
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{name}: {problem}")

    def another_pass(self, measure_start: float, last_pass_raw_s: float) -> bool:
        now = time.perf_counter()
        return (now - measure_start + last_pass_raw_s <= self.seconds
                and now + 2 * last_pass_raw_s < self.deadline)

    def setup_s(self, snippet: str) -> float:
        """Median corrected time for a fresh interpreter to run the set-up snippet."""
        self.spawn(["-c", snippet])                 # writes bytecode caches; not timed
        samples = []
        for _ in range(SETUP_SAMPLES):
            rc, _, err, t0, t1 = self.spawn(["-c", snippet])
            if rc != 0:
                raise RuntimeError(f"set-up failed: {err.decode(errors='replace')[-300:]}")
            samples.append(self.clock.seconds(t0, t1))
        return statistics.median(samples)


# ---------------------------------------------------------------------------
# workloads: each pass function returns ((start, end) of the pass, trace snapshots)

DOT_NODE = re.compile(r'  "[^"]*";')
DOT_EDGE = re.compile(r'  "[^"]*" -> "[^"]*";')


def check_dot(text: str, nodes: int | None, covers: int | None, golden: str | None):
    lines = text.split("\n")
    if lines[:2] != ["digraph wid {", "  rankdir=BT;"] or lines[-2:] != ["}", ""]:
        return "output is not a wid DOT digraph"
    n = sum(1 for x in lines if DOT_NODE.fullmatch(x))
    e = sum(1 for x in lines if DOT_EDGE.fullmatch(x))
    if nodes is not None and (n, e) != (nodes, covers):
        return f"{n} nodes / {e} covers, expected {nodes} / {covers}"
    if n == 0:
        return "no nodes"
    if golden is not None and text != golden:
        return "DOT differs from tests/golden/poset_w2.dot"
    return None


def cli_request(run: Run, argv, traced: bool):
    """`wpline ARGV` in a fresh process: (problem or None, stdout text, trace snapshot)."""
    if not traced:
        rc, out, err, _, _ = run.spawn(["-m", "wpline.cli", *argv])
        out, err, snap = out.decode(errors="replace"), err.decode(errors="replace"), None
    else:
        doc, problem = run.child(["cli", *argv], traced=True)
        if doc is None:
            return problem, "", None
        rc, out, err, snap = doc["rc"], doc["stdout"], doc["stderr"], doc["trace"]
    return (f"exit {rc}: {err[-200:]}" if rc != 0 else None), out, snap


def poset_pass(run: Run, requests, golden: str, traced: bool):
    snaps = []
    t0 = time.perf_counter()
    for weights, lo, hi, k, nodes, covers in requests:
        argv = ["poset", "--weights", weights, "--window", f"{lo}..{hi}"]
        problem, out, snap = cli_request(run, argv, traced)
        problem = problem or check_dot(out, nodes, covers,
                                       golden if weights == "2" and k == 0 else None)
        run.op(" ".join(argv), problem)
        if snap is not None:
            snaps.append(snap)
    return (t0, time.perf_counter()), snaps


def default_window_probes(run: Run, probes):
    """Default-window requests, outside the timed pass: (attempted, failed, notes)."""
    failed, notes = 0, []
    for weights in probes:
        problem, out, _ = cli_request(run, ["poset", "--weights", weights], traced=False)
        problem = problem or check_dot(out, None, None, None)
        if problem:
            failed += 1
            notes.append(f"poset --weights {weights}: {problem}")
    return len(probes), failed, notes


def closure_pass(run: Run, requests, reference, traced: bool):
    snaps = []
    t0 = time.perf_counter()
    for kind, n, s in requests:
        if kind == "closure":
            doc, problem = run.child(["closure", str(n), str(s)], traced)
            if doc is not None and doc["arcs"] != [[s, n]]:
                problem = f"closure of Arc({n},{s},{n}) is {doc['arcs']}, expected only itself"
        else:
            doc, problem = run.child(["bruteforce", str(n)], traced)
            # a rank-n tube has C(2n, n) wide subcategories
            if doc is not None and (doc["fps"] != reference or len(reference) != math.comb(2 * n, n)):
                problem = f"brute-force scan found {len(doc['fps'])} fingerprints, " \
                          f"enumerate_wide({n}) {len(reference)}, expected {math.comb(2 * n, n)}"
        run.op(f"{kind} {n} {'' if s is None else s}".strip(), problem or None)
        if doc is not None and traced:
            snaps.append(doc["trace"])
    return (t0, time.perf_counter()), snaps


def queries_pass(run: Run, stream, traced: bool, latencies):
    doc, problem = run.child(["queries"], traced, json.dumps(stream).encode())
    if doc is None:
        raise RuntimeError(f"query process failed: {problem}")
    bad = dict(doc["bad"])
    for i, kind in enumerate(doc["kinds"]):
        run.op(f"{kind} query {i}", bad.get(i))
        latencies.setdefault(kind, []).append(doc["lat"][i])
    # the child times the stream itself, on the same monotonic clock
    return (doc["start"], doc["end"]), [doc["trace"]] if traced else []


# ---------------------------------------------------------------------------
# metrics

def per_layer_values(merged: dict) -> dict:
    values = dict.fromkeys(PER_LAYER, 0)
    for fn, _caller, calls, s in merged["spans"]:
        if f"{fn}.calls" in values:
            values[f"{fn}.calls"] += calls
        if f"{fn}.s" in values:
            values[f"{fn}.s"] += s
    for layer, s in merged["self_s"].items():
        values[f"{layer}.self_s"] = s
    for name, k in merged["counts"].items():
        if name in values:
            values[name] = k
    for name, (num, den) in RATIOS.items():
        values[name] = values[num] / values[den] if values[den] else 0.0
    return values


def quantile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def report_layers(merged: dict):
    total = sum(merged["self_s"].values())
    print("  layer self time (share of all wrapped time):")
    for layer in tracing.LAYERS:
        s = merged["self_s"].get(layer, 0.0)
        print(f"    {layer:10s} {s:10.3f} s  {100 * s / total if total else 0:5.1f}%")
    print("  spans by caller layer (function, caller, calls, inclusive s), top 25 by time:")
    for fn, caller, calls, s in sorted(merged["spans"], key=lambda r: -r[3])[:25]:
        print(f"    {fn:40s} {caller:10s} {calls:10d} {s:10.3f}")


def run_workload(name: str, seed: int, seconds: float, traced: bool, small: bool = False):
    """Run one workload; returns the result document."""
    run = Run(seed, seconds)
    golden = GOLDEN.read_text()
    if name == "poset":
        requests = workloads.poset_requests(seed)
        probes = workloads.DEFAULT_WINDOW_PROBES
        if small:
            requests = [("2", -2, 3, 0, 20, 45)]
        snippet = "import wpline.cli"

        def one_pass(tr):
            return poset_pass(run, requests, golden, tr)
    elif name == "closure":
        requests = workloads.closure_requests(seed)
        if small:
            requests = [("closure", 2, seed % 2), ("bruteforce", 2, None)]
        brute_rank = requests[-1][1]
        snippet = "import wpline.cli"
        doc, problem = run.child(["reference", str(brute_rank)], traced=False)
        if doc is None:
            raise RuntimeError(f"enumerate_wide({brute_rank}) failed: {problem}")
        reference = doc["fps"]

        def one_pass(tr):
            return closure_pass(run, requests, reference, tr)
    else:
        pairs, cox = (300, 6) if small else (workloads.PAIRS_PER_PASS, workloads.COX_PER_PASS)
        lines = [list(w) for w in workloads.QUERY_LINES]
        snippet = f"import wpline.cli\nfrom wpline.grading import make_line\nfor w in {lines}: make_line(w)"
        latencies: dict[str, list] = {}
        pass_no = [0]

        def one_pass(tr):
            stream = workloads.query_stream(seed, pass_no[0], pairs, cox)
            pass_no[0] += 1
            return queries_pass(run, stream, tr, latencies)

    def timed_pass(tr):
        (a, b), snaps = one_pass(tr)
        return b - a, run.clock.seconds(a, b), snaps

    print(f"workload {name}, seed {seed}, {'traced' if traced else 'untraced'}")
    metrics = {}
    if traced:
        raw_u, pass_u, _ = timed_pass(False)
        raw_t, pass_t, snaps = timed_pass(True)
        merged = tracing.merge(snaps)
        values = per_layer_values(merged)
        values["trace.pass_s"] = pass_t
        values["trace.untraced_pass_s"] = pass_u
        values["trace.overhead_s"] = pass_t - pass_u
        if name == "poset":
            values["cli.default_window.probes"], values["cli.default_window.failed"], notes = \
                default_window_probes(run, probes)
            for note in notes:
                print(f"  default-window probe failed: {note}")
        print(f"  untraced pass {pass_u:.3f} s ({raw_u:.3f} s raw), traced pass {pass_t:.3f} s "
              f"({raw_t:.3f} s raw), overhead {pass_t - pass_u:+.3f} s")
        report_layers(merged)
        for metric, unit in PER_LAYER.items():
            metrics[metric] = {"value": values[metric], "unit": unit}
    else:
        setup = run.setup_s(snippet)
        passes = []
        probe_attempted = probe_failed = 0
        measure_start = time.perf_counter()
        while True:
            raw, corrected, _ = timed_pass(False)
            passes.append(corrected)
            print(f"  pass {len(passes)}: {corrected:.4f} s ({raw:.4f} s raw)")
            if name == "poset":
                a, f, notes = default_window_probes(run, probes)
                probe_attempted += a
                probe_failed += f
                for note in notes:
                    print(f"  default-window probe failed (not timed): {note}")
            if not run.another_pass(measure_start, raw):
                break
        if name == "poset":
            print(f"  failed_frac with the default-window probes: "
                  f"{run.failed + probe_failed}/{run.attempted + probe_attempted} = "
                  f"{(run.failed + probe_failed) / (run.attempted + probe_attempted):.4f}")
        if name == "queries":
            for kind, unit, scale in (("pair", "us", 1e6), ("cox", "ms", 1e3)):
                lat = sorted(latencies.get(kind, []))
                if lat:
                    print(f"  {kind} queries: {len(lat)}, raw latency p50 {quantile(lat, 0.5) * scale:.1f} "
                          f"{unit}, p99 {quantile(lat, 0.99) * scale:.1f} {unit}")
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        values = {"setup_s": setup, "pass_s": statistics.median(passes), "peak_rss_mb": rss_mb}
        for metric, unit in END_TO_END.items():
            metrics[metric] = {"value": values[metric], "unit": unit}
    print(f"  operations: {run.attempted} attempted, {run.failed} failed")
    for p in run.problems[:20]:
        print(f"  FAILED {p}")
    for metric, m in metrics.items():
        print(f"  {metric} = {m['value']} {m['unit']}")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# harness self-check

def selfcheck() -> int:
    """One tiny pass of each workload, untraced and traced: every metric of
    BENCHMARK.json must come out with its unit and every check must pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    if want[False] != END_TO_END or want[True] != PER_LAYER:
        errors.append("BENCHMARK.json metric list differs from the metrics run.py emits")
    for w in spec["workloads"]:
        for traced in (False, True):
            doc = run_workload(w["name"], 1, 0, traced, small=True)
            label = f"{w['name']} trace={int(traced)}"
            if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{label}: result keys {sorted(doc)}")
            if not doc["correct"] or doc["failed"] or doc["attempted"] < 1:
                errors.append(f"{label}: {doc['failed']} of {doc['attempted']} operations failed")
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            if got != want[traced]:
                errors.append(f"{label}: metrics {sorted(set(got) ^ set(want[traced]))} "
                              f"missing, extra or with another unit")
            bad = [k for k, v in doc["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or isinstance(v["value"], bool)]
            if bad:
                errors.append(f"{label}: non-numeric values for {bad}")
            if not traced and any(doc["metrics"][k]["value"] <= 0 for k in END_TO_END):
                errors.append(f"{label}: an end-to-end metric reads 0")
    for e in errors:
        print(f"SELFCHECK FAILED {e}")
    print("selfcheck ok" if not errors else f"selfcheck: {len(errors)} problem(s)")
    return 1 if errors else 0


def main(argv=None) -> int:
    # on termination, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("poset", "closure", "queries"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "wpline" / "cli.py", GOLDEN) if not p.is_file()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunOutOfTime as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
