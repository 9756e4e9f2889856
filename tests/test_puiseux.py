import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from azw.arith import iroot, isqrt
from azw.puiseux import (
    PuiseuxPoly,
    expand_binomial,
    format_puiseux,
    parse_puiseux,
)

C = parse_puiseux("t + 2t^{1/2} + 1")
F = parse_puiseux("t - 2t^{1/2} + 1")


def test_expand_binomial():
    assert expand_binomial(1, 0) == PuiseuxPoly.constant(1)
    assert expand_binomial(3, 2) == parse_puiseux("3t^2 - 6t + 3")
    assert expand_binomial(2, 1) == parse_puiseux("2t - 2")


def test_add_cancellation():
    assert C + (-F) == parse_puiseux("4t^{1/2}")
    assert C - C == PuiseuxPoly.zero()
    assert not (C - C)


def test_eval_exact():
    assert C.eval_exact(4) == 9
    assert F.eval_exact(1) == 0
    assert C.eval_exact(1) == 4
    with pytest.raises(ValueError):
        C.eval_exact(2)  # 2 is not a perfect square
    with pytest.raises(ValueError):
        C.eval_exact(0)


def test_floor_ceil_examples():
    assert C.floor_eval(2) == 5  # 3 + 2*sqrt(2) ~ 5.828
    assert C.floor_eval(9) == 16
    assert F.ceil_eval(2) == 1  # ~ 0.172


def test_branch_consistency_perfect_squares():
    root = PuiseuxPoly.t_power(Fraction(1, 2))
    for q in (1, 4, 9, 49, 10000, 12321):
        assert root.floor_eval(q) == root.ceil_eval(q) == isqrt(q)


def test_exact_integer_cancellation():
    # 2*t^(1/4) - t^(3/4) at t=4 is 2*sqrt(2) - 2*sqrt(2) = 0 exactly:
    # individually irrational terms, so the interval path alone cannot
    # decide the floor and the radical decomposition must.
    g = parse_puiseux("2t^{1/4} - t^{3/4}")
    assert g.floor_eval(4) == 0
    assert g.ceil_eval(4) == 0
    assert g._rational_value(4) == 0
    assert g._rational_value(2) is None


def test_rational_noninteger_value():
    h = parse_puiseux("(1/2)t^{1/2}")
    assert h.floor_eval(9) == 1
    assert h.ceil_eval(9) == 2
    assert h.eval_exact(9) == Fraction(3, 2)


def test_rational_coefficient_integer_exponents():
    h = parse_puiseux("(1/2)t + 1")
    assert h.floor_eval(3) == 2 and h.ceil_eval(3) == 3  # 5/2


def test_monotone_envelope_two_exact_methods():
    # floor(q + 2g*sqrt(q) + 1) = q + isqrt(4 g^2 q) + 1, and dually
    # ceil(q - 2g*sqrt(q) + 1) = q - isqrt(4 g^2 q) + 1: the certified
    # interval path against a pure integer-sqrt identity.
    for g in (1, 3):
        up = PuiseuxPoly([(1, 1), (2 * g, Fraction(1, 2)), (1, 0)])
        down = PuiseuxPoly([(1, 1), (-2 * g, Fraction(1, 2)), (1, 0)])
        for q in range(1, 10**5 + 1):
            assert up.floor_eval(q) == q + isqrt(4 * g * g * q) + 1
            assert down.ceil_eval(q) == q - isqrt(4 * g * g * q) + 1


def test_refinement_past_64_bits():
    # the square root of k^2 -+ 1 and the cube root of k^3 -+ 1 lie within
    # about 2^-84 and 2^-167 of k, so the 64-bit bounds still contain k and
    # one of floor and ceiling needs more bits
    k = 10**25
    for d in (2, 3):
        root = PuiseuxPoly.t_power(Fraction(1, d))
        for q, floor in ((k**d - 1, k - 1), (k**d + 1, k)):
            lo, hi, den = root._bounds(q, 64)
            assert lo <= k * den <= hi and lo < hi
            assert root.floor_eval(q) == floor
            assert root.ceil_eval(q) == floor + 1


def reference_rounded(f: PuiseuxPoly, q: int, rnd) -> int:
    """rnd(f(q)) from per-term Fraction intervals: each t^(num/den) lies
    between r and r + 1 over 2^bits, r = iroot(q^num * 2^(den*bits), den)."""
    if f.is_ordinary:
        return rnd(sum((c * q**e.numerator for c, e in f.terms), Fraction(0)))
    bits = 64
    while True:
        lo = hi = Fraction(0)
        for c, e in f.terms:
            num, den = e.numerator, e.denominator
            radicand = q**num << (den * bits)
            r = iroot(radicand, den)
            t_lo = Fraction(r, 1 << bits)
            t_hi = t_lo if r**den == radicand else Fraction(r + 1, 1 << bits)
            lo += c * (t_lo if c > 0 else t_hi)
            hi += c * (t_hi if c > 0 else t_lo)
        if rnd(lo) == rnd(hi):
            return rnd(lo)
        if bits == 512:
            exact = f._rational_value(q)
            if exact is not None:
                return rnd(exact)
        bits *= 2


TERMS = st.lists(
    st.tuples(
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
        st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)),
    ),
    max_size=4,
)


@given(terms=TERMS, q=st.integers(1, 10**6), k=st.integers(1, 12))
def test_compiled_evaluator_matches_per_term_fraction_intervals(terms, q, k):
    f = PuiseuxPoly(terms)
    d = f.exponent_denominator
    for x in (q, k**d):
        assert f.floor_eval(x) == reference_rounded(f, x, math.floor)
        assert f.ceil_eval(x) == reference_rounded(f, x, math.ceil)
    exact = sum((c * k ** int(e * d) for c, e in f.terms), Fraction(0))
    assert f.eval_exact(k**d) == exact


def test_value_at_one():
    assert C.value_at_one() == (4, True)
    assert F.value_at_one() == (0, True)
    assert parse_puiseux("(1/2)t").value_at_one() == (Fraction(1, 2), False)


def test_ordinary_floor_equals_exact():
    rng = random.Random(7)
    for _ in range(40):
        poly = PuiseuxPoly(
            [(rng.randint(-9, 9), e) for e in range(rng.randint(1, 4))]
        )
        for _ in range(25):
            q = rng.randint(1, 10**4)
            v = poly.eval_exact(q)
            assert poly.floor_eval(q) == v == poly.ceil_eval(q)


def test_ring_axioms_random():
    rng = random.Random(8)

    def rand_poly():
        terms = []
        for _ in range(rng.randint(0, 4)):
            e = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            terms.append((c, e))
        return PuiseuxPoly(terms)

    for _ in range(200):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert (f + g).scale(c) == f.scale(c) + g.scale(c)
        assert f.scale(1) == f
        assert f + PuiseuxPoly.zero() == f


def test_canonical_form():
    p = PuiseuxPoly([(1, Fraction(1, 2)), (2, Fraction(2, 4)), (0, 3)])
    assert p == parse_puiseux("3t^{1/2}")
    assert p.exponent_denominator == 2
    with pytest.raises(ValueError):
        PuiseuxPoly([(1, -1)])


def test_parse_forms():
    assert parse_puiseux("t^(1/2)") == parse_puiseux("t^{1/2}")
    assert parse_puiseux("2 t^{ 1/2 }") == parse_puiseux("2t^{1/2}")
    assert parse_puiseux("-1") == PuiseuxPoly.constant(-1)
    assert parse_puiseux("(1/2)t - 1/2") == PuiseuxPoly(
        [(Fraction(1, 2), 1), (Fraction(-1, 2), 0)]
    )
    assert parse_puiseux("3*t^2") == parse_puiseux("3t^2")
    assert parse_puiseux("0") == PuiseuxPoly.zero()
    with pytest.raises(ValueError):
        parse_puiseux("t^^2")
    with pytest.raises(ValueError):
        parse_puiseux("q + 1")


def test_format_canonical():
    assert format_puiseux(C) == "t + 2t^{1/2} + 1"
    assert format_puiseux(F) == "t - 2t^{1/2} + 1"
    assert format_puiseux(expand_binomial(3, 2)) == "3t^2 - 6t + 3"
    assert format_puiseux(PuiseuxPoly.zero()) == "0"
    assert format_puiseux(parse_puiseux("(1/2)t")) == "(1/2)t"


def test_format_parse_roundtrip_random():
    rng = random.Random(9)
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(0, 5)):
            e = Fraction(rng.randint(0, 9), rng.randint(1, 5))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            terms.append((c, e))
        f = PuiseuxPoly(terms)
        assert parse_puiseux(format_puiseux(f)) == f
