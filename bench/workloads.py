"""Seeded inputs and expected outputs of the three workloads.

Everything here is plain data made with `random.Random(seed)`; nothing
imports wpline, so the program only ever sees the generated inputs.
"""

from __future__ import annotations

import math
import random

# wpline poset inputs: weights, window lo..hi, then the node and cover
# counts of the Hasse diagram at the seed commit.  Shifting a window by a
# multiple of the canonical degree delta(c) = lcm(weights) leaves both
# counts unchanged.  The 3,3 window is -2..3, the narrowest one it
# decides (every width-5 window exits 3); ROADMAP's -3..4 alone would
# take most of a run.
POSET_INPUTS = (
    ("2", -2, 3, 20, 45),
    ("2,2", -2, 3, 91, 291),
    ("2,3", -6, 6, 268, 1063),
    ("4", -8, 8, 322, 1400),
    ("3,3", -2, 3, 926, 4488),
)

# Default-window requests that exit 3 at the seed commit; they are run
# and reported on every pass but kept out of the timed pass.
DEFAULT_WINDOW_PROBES = ("2,3", "4")

# Weights of the query lines and the ordinary points declared on each.
QUERY_LINES = ((2,), (2, 3), (3, 3), (4,), (2, 2), (1, 1))
QUERY_ORDINARY = ((), (), (), (), ("q",), ("a", "b"))

# One query pass: pair queries and cox queries, shuffled together.
PAIRS_PER_PASS = 30000
COX_PER_PASS = 240
MAX_SHIFT_C = 6          # bundle degrees and sequence shifts span +-6 canonical steps
MAX_ORDINARY_LENGTH = 3


def delta_c(weights: str) -> int:
    return math.lcm(*(int(w) for w in weights.split(",")))


def poset_requests(seed: int):
    """(weights, lo, hi, k, nodes, covers) per input; k is the window shift
    in multiples of delta(c), drawn from -2..2."""
    rng = random.Random(seed)
    out = []
    for weights, lo, hi, nodes, covers in POSET_INPUTS:
        k = rng.randint(-2, 2)
        d = k * delta_c(weights)
        out.append((weights, lo + d, hi + d, k, nodes, covers))
    return out


def closure_requests(seed: int):
    """Guarded closures of a full-length arc at ranks 2 and 3 with a seeded
    socle, then the rank-3 brute-force scan."""
    rng = random.Random(seed)
    return [("closure", 2, rng.randrange(2)),
            ("closure", 3, rng.randrange(3)),
            ("bruteforce", 3, None)]


def _padded(weights):
    return tuple(weights) + (1,) * (2 - len(weights))


def _random_sheaf(rng, li):
    ws = _padded(QUERY_LINES[li])
    weighted = [i for i, w in enumerate(ws) if w >= 2]
    ordinary = QUERY_ORDINARY[li]
    kinds = [("O", 0.45)] + ([("T", 0.4)] if weighted else []) + ([("Q", 0.15)] if ordinary else [])
    kind = rng.choices([k for k, _ in kinds], weights=[w for _, w in kinds])[0]
    if kind == "O":
        return ["O", [rng.randrange(w) for w in ws], rng.randint(-MAX_SHIFT_C, MAX_SHIFT_C)]
    if kind == "T":
        i = rng.choice(weighted)
        return ["T", i, rng.randrange(ws[i]), rng.randint(1, ws[i])]
    return ["Q", rng.choice(ordinary), rng.randint(1, MAX_ORDINARY_LENGTH)]


def query_stream(seed: int, pass_index: int, pairs: int = PAIRS_PER_PASS, cox: int = COX_PER_PASS):
    """A shuffled stream of pair and cox queries over the six lines.

    Every line gets the same share of each kind, so the seed changes
    which objects are asked about but not how the work splits by line.

    pair: ["pair", line, sheaf, sheaf]
    cox:  ["cox", line, [shift coeffs, shift c part, prefix length]]
    A sheaf is ["O", coeffs, c_part], ["T", point, socle, length] or
    ["Q", point id, length].
    """
    rng = random.Random(seed * 1000003 + pass_index)
    ops = []
    for li in range(len(QUERY_LINES)):
        ws = _padded(QUERY_LINES[li])
        for _ in range(pairs // len(QUERY_LINES)):
            ops.append(["pair", li, _random_sheaf(rng, li), _random_sheaf(rng, li)])
        seq_len = 2 + sum(w - 1 for w in ws if w >= 2)
        for _ in range(cox // len(QUERY_LINES)):
            shift = [[rng.randrange(w) for w in ws], rng.randint(-MAX_SHIFT_C, MAX_SHIFT_C),
                     rng.randint(1, seq_len - 1)]
            ops.append(["cox", li, shift])
    rng.shuffle(ops)
    return {"lines": [list(w) for w in QUERY_LINES], "ops": ops}
