import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from azw.puiseux import PuiseuxPoly, parse_puiseux
from azw.zeta import (
    FormalProduct,
    check_functional_equation,
    format_product,
    parse_product,
    reflect,
    soule_zeta,
    tensor,
)

ZC = parse_product("1 / (s (s-1/2)^2 (s-1))")
ZF = parse_product("(s-1/2)^2 / (s (s-1))")


def test_soule_elliptic_envelopes():
    assert soule_zeta(parse_puiseux("t + 2t^{1/2} + 1")) == ZC
    assert soule_zeta(parse_puiseux("t - 2t^{1/2} + 1")) == ZF


def test_soule_empty():
    assert soule_zeta(PuiseuxPoly()) == FormalProduct()
    assert not soule_zeta(PuiseuxPoly())


def test_tensor_squares():
    base_c = parse_product("1 / (s (s-1/2))")
    base_f = parse_product("s / (s-1/2)")
    assert tensor(base_c, base_c) == ZC
    assert tensor(base_f, base_f) == ZF


def test_tensor_with_empty():
    z = parse_product("1 / (s (s-1))")
    assert tensor(z, FormalProduct()) == FormalProduct()
    assert tensor(FormalProduct(), z) == FormalProduct()


def test_tensor_commutes_and_multiplicity_sum():
    rng = random.Random(11)

    def rand_product():
        return FormalProduct(
            [
                (Fraction(rng.randint(-4, 4), rng.randint(1, 2)), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 4))
            ]
        )

    for _ in range(200):
        z1, z2 = rand_product(), rand_product()
        t12 = tensor(z1, z2)
        assert t12 == tensor(z2, z1)
        assert t12.multiplicity_sum() == -z1.multiplicity_sum() * z2.multiplicity_sum()


def test_soule_additive_to_multiplicative():
    rng = random.Random(12)

    def rand_poly():
        return PuiseuxPoly(
            [
                (rng.randint(-5, 5), Fraction(rng.randint(0, 6), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 4))
            ]
        )

    for _ in range(200):
        f, g = rand_poly(), rand_poly()
        assert soule_zeta(f + g) == soule_zeta(f) * soule_zeta(g)


def test_reflect_examples():
    sign, z = reflect(parse_product("1 / (s (s-1))"), 1)
    assert (sign, z) == (1, parse_product("1 / (s (s-1))"))
    p2 = parse_product("1 / (s (s-1) (s-2))")
    sign, z = reflect(p2, 2)
    assert sign == -1 and z == p2
    sign, z = reflect(ZF, 1)
    assert sign == 1 and z == ZF


def test_reflect_involution():
    rng = random.Random(13)
    for _ in range(100):
        z = FormalProduct(
            [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
        )
        d = Fraction(rng.randint(-2, 4), rng.randint(1, 2))
        s1, z1 = reflect(z, d)
        s2, z2 = reflect(z1, d)
        assert z2 == z
        total = z.multiplicity_sum()
        if total.denominator == 1 and total.numerator % 2 == 0:
            assert (s1, s2) == (1, 1)


def test_reflect_fractional_multiplicity_sign_is_none():
    z = FormalProduct([(0, Fraction(1, 2))])
    sign, flipped = reflect(z, 1)
    assert sign is None
    assert flipped == FormalProduct([(1, Fraction(1, 2))])


def test_functional_equation_examples():
    assert check_functional_equation(ZF, 1) == (True, 1)
    assert check_functional_equation(ZC, 1) == (True, 1)  # (-1)^4
    assert check_functional_equation(parse_product("1 / (s (s-2))"), 1) == (False, None)


def test_product_multiplication():
    a = parse_product("1 / (s (s-1))")
    b = parse_product("s (s-1)")
    assert a * b == FormalProduct()
    assert a ** 2 == parse_product("1 / (s^2 (s-1)^2)")


def test_format_examples():
    assert format_product(ZC) == "1 / (s (s-1/2)^2 (s-1))"
    assert format_product(ZF) == "(s-1/2)^2 / (s (s-1))"
    assert format_product(FormalProduct()) == "1"
    assert format_product(FormalProduct([(0, -3)])) == "1 / s^3"
    assert format_product(FormalProduct([(-1, 2)])) == "(s+1)^2"


def test_parse_format_roundtrip_random():
    rng = random.Random(14)
    for _ in range(200):
        z = FormalProduct(
            [
                (Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                 Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 5))
            ]
        )
        assert parse_product(format_product(z)) == z


@pytest.mark.parametrize("text", ["11", "s 11", "12", "()", "1 / ()", "s / s / s", "(s", "s)", "(s / s)", "(s-1)^{2}"])
def test_parse_product_refuses(text):
    # the only number that is a factor is 1, and a group holds at least one token
    with pytest.raises(ValueError):
        parse_product(text)


@pytest.mark.parametrize(
    "text, want",
    [
        ("1 / (s - 1)", "1 / (s-1)"),
        ("(s + 1/2 )^ 2", "(s+1/2)^2"),
        ("s^ 2", "s^2"),
        ("s ^(1 / 2)", "s^(1/2)"),
        ("s^2((s-1))", "s^2 (s-1)"),
        ("(s^2) / ((s) (1))", "s"),
        ("(1)", "1"),
        ("(*) s", "s"),
    ],
)
def test_parse_product_reads_blanks_and_grouping_anywhere(text, want):
    assert format_product(parse_product(text)) == want


@st.composite
def product_texts(draw):
    """(text, factors): random factors on either side of a '/', written with
    random blanks, '*', '1', exponent forms and grouping parentheses."""
    blank = lambda: draw(st.sampled_from(["", "", " ", "  ", "\t"]))
    factors, sides = [], []
    for sign in (1, -1):
        items = []
        for _ in range(draw(st.integers(0, 4))):
            root = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 3)))
            mult = Fraction(draw(st.integers(0, 5)), draw(st.integers(1, 3)))
            if root == 0 and draw(st.booleans()):
                base = "s"
            else:
                op = draw(st.sampled_from("+-")) if root == 0 else "-" if root > 0 else "+"
                r = abs(root)
                num = f"{r.numerator}" if r.denominator == 1 and draw(st.booleans()) else f"{r.numerator}/{r.denominator}"
                base = f"({blank()}s{blank()}{op}{blank()}{num.replace('/', blank() + '/' + blank())}{blank()})"
            if mult.denominator == 1 and draw(st.booleans()):
                power = "" if mult == 1 and draw(st.booleans()) else f"^{blank()}{mult.numerator}"
            else:
                power = f"^{blank()}({blank()}{mult.numerator}/{mult.denominator}{blank()})"
            items.append(base + blank() + power)
            factors.append((root, sign * mult))
        items += ["1"] * draw(st.integers(0, 2)) + ["*"] * draw(st.integers(0, 1))
        items = draw(st.permutations(items))
        for _ in range(draw(st.integers(0, 2))):  # group a non-empty run
            if items:
                i = draw(st.integers(0, len(items) - 1))
                j = draw(st.integers(i + 1, len(items)))
                items[i:j] = ["(" + blank() + " ".join(items[i:j]) + blank() + ")"]
        sides.append(" ".join(items) if items else draw(st.sampled_from(["", "1"])))
    text = sides[0] + (f"{blank()}/{blank()}{sides[1]}" if sides[1] or draw(st.booleans()) else "")
    return text, factors


@given(product_texts())
def test_parse_product_reads_every_written_form(case):
    text, factors = case
    assert parse_product(text) == FormalProduct(factors)
