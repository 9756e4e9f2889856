import random
from fractions import Fraction

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
