import math
import random
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from azw import fit
from azw.arith import iroot, isqrt
from certified import bounds, ceil_eval, eval_exact, floor_eval, rational_value
from azw.puiseux import (
    PuiseuxPoly,
    expand_binomial,
    format_puiseux,
    parse_fraction,
    parse_puiseux,
)
from azw.zeta import FormalProduct, format_product, parse_product

C = parse_puiseux("t + 2t^{1/2} + 1")
F = parse_puiseux("t - 2t^{1/2} + 1")


def test_expand_binomial():
    assert expand_binomial(1, 0) == PuiseuxPoly([(1, 0)])
    assert expand_binomial(3, 2) == parse_puiseux("3t^2 - 6t + 3")
    assert expand_binomial(2, 1) == parse_puiseux("2t - 2")


def test_add_cancellation():
    assert C + (-F) == parse_puiseux("4t^{1/2}")
    assert C - C == PuiseuxPoly()
    assert not (C - C)


def test_eval_exact():
    assert eval_exact(C, 4) == 9
    assert eval_exact(F, 1) == 0
    assert eval_exact(C, 1) == 4
    with pytest.raises(ValueError):
        eval_exact(C, 2)  # 2 is not a perfect square
    with pytest.raises(ValueError):
        eval_exact(C, 0)


def test_floor_ceil_examples():
    assert floor_eval(C, 2) == 5  # 3 + 2*sqrt(2) ~ 5.828
    assert floor_eval(C, 9) == 16
    assert ceil_eval(F, 2) == 1  # ~ 0.172


def test_branch_consistency_perfect_squares():
    root = PuiseuxPoly.t_power(Fraction(1, 2))
    for q in (1, 4, 9, 49, 10000, 12321):
        assert floor_eval(root, q) == ceil_eval(root, q) == isqrt(q)


def test_exact_integer_cancellation():
    # 2*t^(1/4) - t^(3/4) at t=4 is 2*sqrt(2) - 2*sqrt(2) = 0 exactly:
    # individually irrational terms, so the interval path alone cannot
    # decide the floor and the radical decomposition must.
    g = parse_puiseux("2t^{1/4} - t^{3/4}")
    assert floor_eval(g, 4) == 0
    assert ceil_eval(g, 4) == 0
    assert rational_value(g, 4) == 0
    assert rational_value(g, 2) is None


def test_rational_noninteger_value():
    h = parse_puiseux("(1/2)t^{1/2}")
    assert floor_eval(h, 9) == 1
    assert ceil_eval(h, 9) == 2
    assert eval_exact(h, 9) == Fraction(3, 2)


def test_rational_coefficient_integer_exponents():
    h = parse_puiseux("(1/2)t + 1")
    assert floor_eval(h, 3) == 2 and ceil_eval(h, 3) == 3  # 5/2


def test_monotone_envelope_two_exact_methods():
    # floor(q + 2g*sqrt(q) + 1) = q + isqrt(4 g^2 q) + 1, and dually
    # ceil(q - 2g*sqrt(q) + 1) = q - isqrt(4 g^2 q) + 1: the certified
    # interval path against a pure integer-sqrt identity.
    for g in (1, 3):
        up = PuiseuxPoly([(1, 1), (2 * g, Fraction(1, 2)), (1, 0)])
        down = PuiseuxPoly([(1, 1), (-2 * g, Fraction(1, 2)), (1, 0)])
        for q in range(1, 10**5 + 1):
            assert floor_eval(up, q) == q + isqrt(4 * g * g * q) + 1
            assert ceil_eval(down, q) == q - isqrt(4 * g * g * q) + 1


def test_refinement_past_64_bits():
    # the square root of k^2 -+ 1 and the cube root of k^3 -+ 1 lie within
    # about 2^-84 and 2^-167 of k, so the 64-bit bounds still contain k and
    # one of floor and ceiling needs more bits
    k = 10**25
    for d in (2, 3):
        root = PuiseuxPoly.t_power(Fraction(1, d))
        for q, floor in ((k**d - 1, k - 1), (k**d + 1, k)):
            lo, hi, den = bounds(root, q, 64)
            assert lo <= k * den <= hi and lo < hi
            assert floor_eval(root, q) == floor
            assert ceil_eval(root, q) == floor + 1


def reference_rounded(f: PuiseuxPoly, q: int, rnd) -> int:
    """rnd(f(q)) from per-term Fraction intervals: each t^(num/den) lies
    between r and r + 1 over 2^bits, r = iroot(q^num * 2^(den*bits), den)."""
    if fit._compile(f)[0] == 1:
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
            exact = rational_value(f, q)
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
    d = fit._compile(f)[0]
    for x in (q, k**d):
        assert floor_eval(f, x) == reference_rounded(f, x, math.floor)
        assert ceil_eval(f, x) == reference_rounded(f, x, math.ceil)
    exact = sum((c * k ** int(e * d) for c, e in f.terms), Fraction(0))
    assert eval_exact(f, k**d) == exact


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
            v = eval_exact(poly, q)
            assert floor_eval(poly, q) == v == ceil_eval(poly, q)


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
        assert -(f + g) == -f - g
        assert f - f == PuiseuxPoly()
        assert f + PuiseuxPoly() == f


def test_canonical_form():
    p = PuiseuxPoly([(1, Fraction(1, 2)), (2, Fraction(2, 4)), (0, 3)])
    assert p == parse_puiseux("3t^{1/2}")
    assert fit._compile(p)[0] == 2
    with pytest.raises(ValueError):
        PuiseuxPoly([(1, -1)])


def test_parse_forms():
    assert parse_puiseux("t^(1/2)") == parse_puiseux("t^{1/2}")
    assert parse_puiseux("2 t^{ 1/2 }") == parse_puiseux("2t^{1/2}")
    assert parse_puiseux("-1") == PuiseuxPoly([(-1, 0)])
    assert parse_puiseux("(1/2)t - 1/2") == PuiseuxPoly(
        [(Fraction(1, 2), 1), (Fraction(-1, 2), 0)]
    )
    assert parse_puiseux("3*t^2") == parse_puiseux("3t^2")
    assert parse_puiseux("0") == PuiseuxPoly()
    with pytest.raises(ValueError):
        parse_puiseux("t^^2")
    with pytest.raises(ValueError):
        parse_puiseux("q + 1")


@pytest.mark.parametrize("text", ["1 2", "2 12", "2*", "*t", "12*", "t^2 3", "3 *", "()", "(3"])
def test_parse_refuses_blanks_in_a_number_and_a_stray_star(text):
    # a blank separates two numbers instead of joining them, and a '*' stands only between a coeff and t
    with pytest.raises(ValueError, match="^cannot parse"):
        parse_puiseux(text)


@pytest.mark.parametrize(
    "text, want",
    [("(3)t", "3t"), ("(3)", "3"), ("t^\t2", "t^2"), ("1\t/5", "(1/5)"), ("t ^ {1 / 2}", "t^{1/2}")],
)
def test_parse_reads_parenthesized_integers_and_any_blank(text, want):
    assert format_puiseux(parse_puiseux(text)) == want


@st.composite
def puiseux_texts(draw):
    """(text, terms): random terms written with random signs, blanks, '*',
    coefficient parentheses and exponent forms."""
    blank = lambda: draw(st.sampled_from(["", "", " ", "  ", "\t"]))
    terms, parts = [], []
    for i in range(draw(st.integers(0, 4))):
        c = Fraction(draw(st.integers(0, 30)), draw(st.integers(1, 6)))
        e = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
        negative = draw(st.booleans())
        signs = list("-" if negative else "+") + draw(st.sampled_from([[], ["+"], ["-", "-"]]))
        if i == 0 and not negative and draw(st.booleans()):
            signs = []
        text = "".join(sign + blank() for sign in signs)
        num = f"{c.numerator}" if c.denominator == 1 and draw(st.booleans()) else f"{c.numerator}/{c.denominator}"
        if e and c == 1 and draw(st.booleans()):
            coeff = ""
        elif draw(st.booleans()):
            coeff = f"({blank()}{num.replace('/', blank() + '/' + blank())}{blank()})"
        else:
            coeff = num
        if e:
            star = blank() + "*" + blank() if coeff and draw(st.booleans()) else blank()
            exp = f"{e.numerator}/{e.denominator}"
            if e.denominator == 1 and draw(st.booleans()):
                power = "" if e == 1 and draw(st.booleans()) else f"^{blank()}{e.numerator}"
            else:
                opening, closing = draw(st.sampled_from(["()", "{}"]))
                power = f"^{blank()}{opening}{blank()}{exp}{blank()}{closing}"
            text += f"{coeff}{star}t{blank()}{power}"
        else:
            text += coeff or "1"
        parts.append(text)
        terms.append((-c if negative else c, e))
    return blank().join(parts), terms


@given(puiseux_texts())
def test_parse_puiseux_reads_every_written_form(case):
    text, terms = case
    assert parse_puiseux(text) == PuiseuxPoly(terms)


def test_format_canonical():
    assert format_puiseux(C) == "t + 2t^{1/2} + 1"
    assert format_puiseux(F) == "t - 2t^{1/2} + 1"
    assert format_puiseux(expand_binomial(3, 2)) == "3t^2 - 6t + 3"
    assert format_puiseux(PuiseuxPoly()) == "0"
    assert format_puiseux(parse_puiseux("(1/2)t")) == "(1/2)t"
    # fit refuses exponent denominators past 2, but the algebra keeps them
    assert format_puiseux(parse_puiseux("t + t^{1/3}")) == "t + t^{1/3}"
    assert parse_puiseux("t + t^{1/3}") == PuiseuxPoly([(1, 1), (1, Fraction(1, 3))])


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


# --- canonical forms against their Fraction references ------------------------


def reference_poly(terms):
    """PuiseuxPoly's canonical form computed in Fractions, term by term, and
    its integer form: (terms, fit._compile(f)), as the constructor computed
    them before it kept keys in integers."""
    merged: dict[Fraction, Fraction] = {}
    for coeff, exp in terms:
        c = Fraction(coeff)
        e = Fraction(exp)
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        merged[e] = merged.get(e, Fraction(0)) + c
    canon = tuple((c, e) for e, c in sorted(merged.items(), reverse=True) if c != 0)
    d = reduce(math.lcm, (e.denominator for _, e in canon), 1)
    lcd = reduce(math.lcm, (c.denominator for c, _ in canon), 1)
    ints = tuple(
        (c.numerator * (lcd // c.denominator), e.numerator * (d // e.denominator)) for c, e in canon
    )
    return canon, (d, lcd, ints, ints[0][1] if ints else 0)


def reference_product(factors):
    """FormalProduct's root -> multiplicity map computed in Fractions."""
    merged: dict[Fraction, Fraction] = {}
    for root, mult in factors:
        r = Fraction(root)
        merged[r] = merged.get(r, Fraction(0)) + Fraction(mult)
    return {r: m for r, m in sorted(merged.items()) if m != 0}


@st.composite
def as_given(draw, x: Fraction):
    """x as an int, a Fraction, an 'a/b' string or a numpy int."""
    kinds = ["fraction", "str"] + (["int", "numpy"] if x.denominator == 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return int(x)
    if kind == "numpy":
        return np.int64(x.numerator)
    return f"{x.numerator}/{x.denominator}" if kind == "str" else x


@st.composite
def term_lists(draw, key_lo: int):
    """(value, key) pairs with keys in [key_lo/4, 3]: repeated keys, some
    terms cancelled by their negation (which may lower the keys' common
    denominator, or leave nothing), in a drawn order and representation."""
    rationals = lambda lo, hi: st.builds(Fraction, st.integers(lo, hi), st.integers(1, 4))
    base = draw(st.lists(st.tuples(rationals(-6, 6), rationals(key_lo, 12)), max_size=5))
    cancelled = draw(st.lists(st.sampled_from(base), max_size=len(base))) if base else []
    pairs = draw(st.permutations(base + [(-v, k) for v, k in cancelled]))
    return [(draw(as_given(v)), draw(as_given(k))) for v, k in pairs]


def text_of(terms) -> str:
    return format_puiseux(SimpleNamespace(terms=terms))


@given(term_lists(0))
def test_puiseux_canonical_form_matches_fraction_reference(pairs):
    f = PuiseuxPoly(pairs)
    terms, compiled = reference_poly(pairs)
    assert f.terms == terms and fit._compile(f) == compiled
    assert all(type(x) is Fraction and type(x.numerator) is int for term in f.terms for x in term)
    value = sum((c for c, _ in terms), Fraction(0))
    assert f.value_at_one() == (value, value.denominator == 1)
    assert hash(f) == hash(terms)
    assert format_puiseux(f) == text_of(terms)
    assert parse_puiseux(format_puiseux(f)) == f


@given(term_lists(-8))
def test_negative_exponents_still_raise(pairs):
    if all(Fraction(k) >= 0 for _, k in pairs):
        assert PuiseuxPoly(pairs).terms == reference_poly(pairs)[0]
        return
    with pytest.raises(ValueError, match="negative exponent"):
        reference_poly(pairs)
    with pytest.raises(ValueError, match="negative exponent"):
        PuiseuxPoly(pairs)


@given(term_lists(-8))
def test_product_canonical_form_matches_fraction_reference(pairs):
    factors = [(k, v) for v, k in pairs]  # (root, multiplicity)
    z = FormalProduct(factors)
    want = reference_product(factors)
    assert z.factors == want and list(z.factors) == list(want)
    assert all(type(x) is Fraction and type(x.numerator) is int for item in z.factors.items() for x in item)
    assert hash(z) == hash(tuple(want.items()))
    assert format_product(z) == format_product(SimpleNamespace(factors=want))
    assert parse_product(format_product(z)) == z
    assert FormalProduct(dict(z.factors)) == z


def test_cancellation_lowers_the_exponent_denominator():
    f = PuiseuxPoly([(1, Fraction(1, 2)), (-1, "1/2"), (1, 1)])
    assert f.terms == ((1, 1),) and fit._compile(f)[0] == 1
    g = PuiseuxPoly([(1, Fraction(1, 4)), (-1, Fraction(1, 4)), (2, Fraction(3, 2))])
    assert fit._compile(g) == (2, 1, ((2, 3),), 3)
    assert fit._compile(PuiseuxPoly([(Fraction(1, 3), 2), (Fraction(-1, 3), 2)])) == (1, 1, (), 0)


@pytest.mark.parametrize(
    "text", ["0", "7", "0012", "1234567890123456789012345", " 3/6 ", "+3", "1_0", "\u0663", "\u00b2", "3.5"]
)
def test_parse_fraction_reads_as_fraction_does(text):
    # ASCII digit strings take int(); the rest, other Unicode digits included, Fraction(str)
    try:
        want = Fraction(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_fraction(text)
        return
    got = parse_fraction(text)
    assert got == want and type(got) is Fraction and type(got.numerator) is int


def test_parse_fraction_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_fraction("1/0")
