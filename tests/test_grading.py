"""Degree group arithmetic checked against brute-force oracles."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wpline.grading import (GradeElement, dim_S, line_invariants,
                            make_line, normalize, parse_weights)
from wpline.sheaves import OrdinaryTorsion


def generator(line, i: int) -> GradeElement:
    """The element x_i (0-based point index)."""
    return line.element([int(j == i) for j in range(line.n)])


def scale(a: GradeElement, k: int) -> GradeElement:
    """k times a, in normal form."""
    return normalize(a.line, tuple(k * x for x in a.coeffs), k * a.c_part)


def neg(a: GradeElement) -> GradeElement:
    """-a, in normal form."""
    return scale(a, -1)


def sub(a: GradeElement, b: GradeElement) -> GradeElement:
    """a - b, coefficient by coefficient, in normal form."""
    return normalize(a.line, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)),
                     a.c_part - b.c_part)


def is_effective(a: GradeElement) -> bool:
    """Whether a is a sum of generators with nonnegative coefficients,
    equivalently has nonnegative c part in normal form."""
    return a.c_part >= 0


def section_count_oracle(line, a: GradeElement) -> int:
    """Count monomials of degree a directly.

    A monomial is u^i v^j x_1^{k_1} x_2^{k_2} with 0 <= k_t < p_t, so
    the count only needs equality in the group, not the closed form.
    """
    bound = max(abs(a.degree()) // line.p + 2, 2)
    total = 0
    for k in itertools.product(*(range(p) for p in line.weights)):
        base = line.zero()
        for idx, mult in enumerate(k):
            base = base + scale(generator(line, idx), mult)
        for m in range(bound + 1):
            if base + scale(line.canonical(), m) == a:
                total += m + 1
    return total


def test_make_line_pads_to_two_points():
    line = make_line((2,))
    assert line.weights == (2, 1)
    assert line.points == ("inf", "0")


def test_make_line_three_weights():
    line = make_line((2, 3, 5))
    assert line.weights == (2, 3, 5)
    assert line.points == ("inf", "0", "1")
    assert line.p == 30


def test_make_line_names_a_fourth_point_by_its_position():
    assert make_line([2, 2, 2, 2]).points == ("inf", "0", "1", "l4")


def test_make_line_rejects_clashing_ordinary_label():
    with pytest.raises(ValueError, match="clashes with a weighted point"):
        OrdinaryTorsion(make_line((2,)), "inf", 1)
    OrdinaryTorsion(make_line((2,)), "a", 1)


def test_parse_weights():
    assert parse_weights("2,3") == [2, 3]
    assert parse_weights("2") == [2]
    with pytest.raises(ValueError):
        parse_weights("2,zero")
    with pytest.raises(ValueError):
        parse_weights("0,3")


def test_normal_form_bounds():
    line = make_line((2, 3))
    for coeffs, c in [((5, 7), -2), ((-1, -1), 4), ((2, 3), 0)]:
        a = normalize(line, coeffs, c)
        assert all(0 <= li < pi for li, pi in zip(a.coeffs, line.weights))


def test_defining_relation_absorbed():
    # p_i * x_i equals c, so adding p_i to one coefficient and
    # subtracting one from the c part must not change the element.
    line = make_line((2, 3))
    for coeffs, c in [((0, 0), 0), ((1, 2), -1), ((3, 5), 2)]:
        a = normalize(line, coeffs, c)
        for i, p in enumerate(line.weights):
            bumped = list(coeffs)
            bumped[i] += p
            assert normalize(line, tuple(bumped), c - 1) == a


def test_group_axioms_sample():
    line = make_line((2, 3))
    elems = [normalize(line, (i, j), c)
             for i in range(2) for j in range(3) for c in (-1, 0, 1)]
    for a, b in itertools.product(elems[:6], repeat=2):
        assert sub(a + b, b) == a
    for a, b in itertools.product(elems, repeat=2):
        assert sub(a, b) == a + neg(b)
    z = line.zero()
    for a in elems:
        assert a + z == a
        assert a + neg(a) == z


def test_dualizing_element_normal_form():
    line = make_line((2,))
    w = line.dualizing()
    assert (w.coeffs, w.c_part) == ((1, 0), -2)
    line = make_line((2, 3))
    w = line.dualizing()
    assert (w.coeffs, w.c_part) == ((1, 2), -2)


def test_degree_values():
    line = make_line((2,))
    assert line.canonical().degree() == 2
    assert generator(line, 0).degree() == 1
    assert line.dualizing().degree() == -3
    line = make_line((1, 1))
    assert line.dualizing().degree() == -2
    line = make_line((2, 3))
    assert line.dualizing().degree() == -5


def test_classification_trichotomy():
    cases = {
        (2,): "domestic",
        (1, 1): "domestic",
        (2, 3): "domestic",
        (3, 3): "domestic",
        (2, 3, 5): "domestic",
        (2, 3, 6): "tubular",
        (2, 4, 4): "tubular",
        (2, 3, 7): "wild",
        (3, 3, 4): "wild",
    }
    for weights, expected in cases.items():
        line = make_line(weights)
        c, omega, kind = line_invariants(line)
        assert kind == expected, weights
        sign = (omega.degree() > 0) - (omega.degree() < 0)
        assert {"domestic": -1, "tubular": 0, "wild": 1}[kind] == sign


def test_dualizing_degree_signs():
    assert make_line((2, 3, 5)).dualizing().degree() == -1
    assert make_line((2, 3, 6)).dualizing().degree() == 0
    assert make_line((2, 3, 7)).dualizing().degree() == 1


def section_dim(a: GradeElement) -> int:
    """dim_S of a normal form, read as a raw degree."""
    return dim_S(a.line, a.coeffs, a.c_part)


def test_section_dimension_formula():
    line = make_line((2,))
    zero = line.zero()
    assert section_dim(zero) == 1
    assert section_dim(generator(line, 0)) == 1
    assert section_dim(line.canonical()) == 2
    assert section_dim(neg(generator(line, 0))) == 0
    assert section_dim(line.dualizing()) == 0
    # raw degrees: 2 x_0 = c, -x_0 = x_0 - c, and omega = -x_0 - x_1
    assert dim_S(line, (2, 0), 0) == 2
    assert dim_S(line, (-1, 0), 0) == 0
    assert dim_S(line, (-1, -1), 0) == 0


def test_section_dimension_against_monomial_count():
    """dim_S of raw coefficients, below zero and past the weights, against
    the monomial count of their normal form."""
    for weights in ((2,), (1, 1), (2, 3)):
        line = make_line(weights)
        for i in range(-line.weights[0], 2 * line.weights[0]):
            for j in range(-line.weights[1], 2 * line.weights[1]):
                for c in range(-2, 4):
                    a = normalize(line, (i, j), c)
                    assert dim_S(line, (i, j), c) == section_count_oracle(line, a), \
                        (weights, i, j, c)


def test_effectivity_matches_positive_dimension():
    line = make_line((2, 3))
    for i in range(2):
        for j in range(3):
            for c in (-2, -1, 0, 1, 2):
                a = normalize(line, (i, j), c)
                assert is_effective(a) == (section_dim(a) > 0)


def test_partial_order():
    line = make_line((2,))
    assert is_effective(sub(line.canonical(), line.zero()))
    assert not is_effective(sub(line.zero(), line.canonical()))
    assert is_effective(sub(line.zero(), line.dualizing()))


def test_str_form():
    line = make_line((2, 3))
    assert str(normalize(line, (3, 4), 0)) == "(1,1;2)"


def test_cached_constants_leave_equality_and_hash_alone():
    a, b = make_line((2, 3)), make_line((2, 3))
    assert (a.p, a.weighted_indices(), a.dualizing()) == (6, (0, 1), a.element((-1, -1), 0))
    assert "p" in vars(a) and "p" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert {a: "cached"}[b] == "cached"
    assert b.dualizing() == a.dualizing() and b.weighted_indices() == a.weighted_indices()


def test_separately_built_lines_are_equal_values():
    """Equality, hash and repr are those of the fields, whether or not
    the per-instance constants are filled."""
    a, b = make_line((2, 3)), make_line((2, 3))
    assert a is not b
    hash(a)
    assert a == b and hash(a) == hash(b) == hash((a.weights, a.points))
    assert repr(a) == repr(b) == "WeightData(weights=(2, 3), points=('inf', '0'))"
    assert a != (2, 3) and a != ((2, 3), ("inf", "0"))
    assert a != make_line((3, 2))


def reference_normalize(line, coeffs, c_part):
    """The per-coefficient divmod loop that normalize replaced."""
    coeffs = tuple(coeffs)
    if len(coeffs) != len(line.weights):
        raise ValueError("coefficient count does not match the weight count")
    carry = int(c_part)
    normed = []
    for a, p in zip(coeffs, line.weights):
        q, r = divmod(int(a), p)
        normed.append(r)
        carry += q
    return GradeElement(line, tuple(normed), carry)


@st.composite
def raw_elements(draw):
    """A line of one to three points and raw coefficients of any sign,
    with the count sometimes off by one."""
    line = make_line(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3)))
    n = line.n + draw(st.sampled_from((0, 0, 0, -1, 1)))
    big = st.integers(-10 ** 6, 10 ** 6)
    return line, draw(st.lists(big, min_size=n, max_size=n)), draw(big)


@settings(max_examples=400)
@given(raw_elements())
def test_normalize_matches_divmod_reference(case):
    line, coeffs, c_part = case

    def outcome(f, *args):
        try:
            return f(*args)
        except ValueError as exc:
            return str(exc)

    got = outcome(normalize, line, coeffs, c_part)
    assert got == outcome(reference_normalize, line, coeffs, c_part)
    assert outcome(normalize, line, iter(coeffs), c_part) == got
