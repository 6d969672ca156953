"""Acceptance gate: the thirteen release criteria with their budgets.

Each test delegates to the corresponding check in wpline.verify and
asserts both the verdict and the stated time budget, so a slow pass
fails here even if the computation is right.  A single-line fault in any
branch of the closed forms must make some criterion fail, and a fault
that a criterion exists to catch must make that one fail and name it.
"""

import inspect
import itertools

import pytest

from wpline import grading, sheaves, tube, verify


def _run(criterion, budget=None):
    r = criterion()
    assert r["ok"], r["detail"]
    if budget is not None:
        assert r["seconds"] <= budget, f"took {r['seconds']:.1f}s, budget {budget}s"
    return r


def test_01_tube_lattice_counts_and_counter():
    r = _run(verify.criterion_1, budget=60.0)
    assert "252" in r["detail"]


def test_02_rank_two_tube_subcategories():
    r = _run(verify.criterion_2)
    assert "6" in r["detail"]


def test_03_perpendicular_bijection():
    _run(verify.criterion_3, budget=10.0)


def test_04_bruteforce_enumeration():
    _run(verify.criterion_4)


def test_05_two_ext_paths_agree():
    r = _run(verify.criterion_5)
    assert "pairs=" in r["detail"]


def test_06_euler_form_consistency():
    _run(verify.criterion_6)


def test_07_coxeter_identity_and_length():
    _run(verify.criterion_7)


def test_08_cox_order_isomorphism():
    _run(verify.criterion_8)


def test_09_window_hasse_diagram_golden():
    r = _run(verify.criterion_9)
    assert "20 nodes" in r["detail"]
    assert "45 covers" in r["detail"]


def test_10_unweighted_line_decomposition():
    r = _run(verify.criterion_10)
    assert "11 nodes" in r["detail"]


def test_11_pushout_certificate():
    _run(verify.criterion_11)


def test_12_shift_invariant_round_trip():
    _run(verify.criterion_12)


def test_13_completion_and_ordering():
    _run(verify.criterion_13, budget=30.0)


def test_all_reported_names_unique():
    names = [c.__doc__ for c in verify.CRITERIA]
    assert len(verify.CRITERIA) == 13
    assert len(set(names)) == 13


# one single-line fault per branch of the closed forms: (module, function,
# text as written, the same text with the fault)
CLOSED_FORM_FAULTS = [
    (sheaves, "_hom", "return t + 1 if t >= 0 else 0", "return t + 1 if t > 0 else 0"),
    (sheaves, "_hom", "- b.arc.socle + k) % p", "- b.arc.socle - k) % p"),
    (sheaves, "_hom", "        return b.length", "        return 1"),
    (sheaves, "_hom", "ta is not tb:\n        return 0", "ta is not tb:\n        return 1"),
    (sheaves, "_hom", "a.point != b.point:\n            return 0",
     "a.point != b.point:\n            return 1"),
    (sheaves, "_hom", "tube.ext_dim(b.arc, a.arc)", "tube.ext_dim(a.arc, b.arc)"),
    (sheaves, "_hom", "tube.hom_dim(a.arc, b.arc)", "tube.hom_dim(b.arc, a.arc)"),
    (sheaves, "_hom", "min(a.length, b.length)", "max(a.length, b.length)"),
    (sheaves, "_hom", "a.point_id == b.point_id else 0", "a.point_id == b.point_id else 1"),
    (tube, "hom_dim", "(a.top - b.socle) % n", "(a.top - b.socle + 1) % n"),
    (tube, "ext_dim", "(b.top - a.socle + 1) % n", "(b.top - a.socle) % n"),
    (grading, "normalize", "c_part + sum(", "c_part - sum("),
]


def clear_closed_form_caches():
    """The memos filled from the closed forms; the oracle's never read them."""
    tube.tube_universe.cache_clear()
    tube.tube_lattice.cache_clear()


@pytest.mark.parametrize("module, name, text, fault", CLOSED_FORM_FAULTS,
                         ids=[f"{m.__name__.removeprefix('wpline.')}.{n}-{i}"
                              for i, (m, n, _, _) in enumerate(CLOSED_FORM_FAULTS)])
def test_each_closed_form_fault_fails_a_criterion(monkeypatch, module, name, text, fault):
    """The function recompiled in process from its source with one fault,
    no file written, makes run_all report a failed criterion."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(text) == 1
    scope = dict(vars(module))
    exec(compile(source.replace(text, fault), module.__file__, "exec"), scope)
    monkeypatch.setattr(module, name, scope[name])
    clear_closed_form_caches()
    try:
        reports = verify.run_all()
    finally:
        clear_closed_form_caches()
    assert not all(r["ok"] for r in reports)


def answer_on_every_other_call(real, fixed):
    """real, but answering fixed on every second call."""
    calls = itertools.count()
    return lambda *args: fixed if next(calls) % 2 else real(*args)


# one fault per failure branch of a criterion that no closed-form fault
# reaches: (criterion, module, function, its replacement, what the report
# must name)
CRITERION_FAULTS = [
    (verify.criterion_3, tube, "perp_pair", lambda n, mask: mask, "bad=98"),
    (verify.criterion_7, verify, "abs_length", lambda c: 0, "abs_length=0"),
    (verify.criterion_12, tube, "perp_pair", lambda n, mask: mask,
     "members at point 0 are not the perpendicular data"),
    (verify.criterion_13, tube, "wide_closure",
     answer_on_every_other_call(tube.wide_closure, tube.TubeWideFingerprint(1, frozenset())),
     "closure mismatch"),
    (verify.criterion_13, tube, "is_rigid_set", lambda objs, ext: False,
     "first set is not rigid"),
]


@pytest.mark.parametrize("criterion, module, name, fault, named", CRITERION_FAULTS,
                         ids=[f"{c.__name__}-{n}" for c, _, n, _, _ in CRITERION_FAULTS])
def test_each_criterion_fault_fails_its_criterion(monkeypatch, criterion, module, name, fault,
                                                  named):
    """One function replaced by a fault makes its criterion report a
    failure that names the problem."""
    monkeypatch.setattr(module, name, fault)
    r = criterion()
    assert not r["ok"]
    assert named in r["detail"]
