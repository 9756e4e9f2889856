from fractions import Fraction

import pytest

from azw import elliptic
from azw.arith import PrimePowerDomain, build_field, isqrt, sieve
from azw.elliptic import EllipticCurve
from azw.puiseux import parse_puiseux

E_MX = elliptic.FIXTURE_CURVES[0]  # y^2 = x^3 - x
E_PX = elliptic.FIXTURE_CURVES[1]  # y^2 = x^3 + x
E_P1 = elliptic.FIXTURE_CURVES[2]  # y^2 = x^3 + 1


def brute_count_fp(curve, p):
    """Direct residue enumeration over F_p, independent of the numpy path."""
    squares = {}
    for y in range(p):
        squares[y * y % p] = squares.get(y * y % p, 0) + 1
    total = 1
    for x in range(p):
        rhs = (x * x * x + curve.a * x + curve.b) % p
        total += squares.get(rhs, 0)
    return total


def test_curve_validation_and_bad_primes():
    with pytest.raises(ValueError):
        EllipticCurve(0, 0)
    assert EllipticCurve(1, 0).bad_primes == frozenset({2, 3})  # disc -64
    assert EllipticCurve(-1, 0).bad_primes == frozenset({2, 3})
    assert EllipticCurve(0, 1).bad_primes == frozenset({2, 3})  # disc -432
    assert EllipticCurve(-1, 1).bad_primes == frozenset({2, 3, 23})  # disc -368


def test_count_fp_examples():
    assert elliptic.count_fp(E_PX, 5) == 4
    assert elliptic.count_fp(E_PX, 7) == 8  # supersingular, 7 = 3 mod 4
    assert elliptic.count_fp(E_P1, 5) == 6  # supersingular, 5 = 2 mod 3
    assert elliptic.count_fp(E_MX, 5) == 8


def test_count_fp_rejects_bad_primes():
    with pytest.raises(ValueError):
        elliptic.count_fp(E_PX, 2)
    with pytest.raises(ValueError):
        elliptic.count_fp(E_PX, 3)
    with pytest.raises(ValueError):
        elliptic.count_fp(EllipticCurve(-1, 1), 23)
    with pytest.raises(ValueError):
        elliptic.count_fp(E_PX, 15)


def test_count_fp_against_residue_enumeration():
    for curve in elliptic.FIXTURE_CURVES:
        for p in sieve(200):
            if p in curve.bad_primes:
                continue
            assert elliptic.count_fp(curve, p) == brute_count_fp(curve, p)


def test_count_extension_examples():
    # supersingular closed forms at m = 2 and m = 4
    assert elliptic.count_extension(E_PX, 7, 2) == 7**2 + 2 * 7 + 1
    assert elliptic.count_extension(E_PX, 7, 4) == 7**4 - 2 * 7**2 + 1
    assert elliptic.count_extension(E_PX, 5, 2) == 32
    assert elliptic.count_extension_oracle(E_PX, 5, 2) == 32
    with pytest.raises(ValueError):
        elliptic.count_extension(E_PX, 5, 0)


def test_trace_cache_still_rejects_bad_and_composite_p():
    curve = EllipticCurve(-1, 1)  # bad primes 2, 3, 23
    for p in sieve(100):
        if p not in curve.bad_primes:
            curve.trace(p)
    for p in (2, 3, 23, 1, 15, 25, 91):
        with pytest.raises(ValueError):
            curve.trace(p)
        with pytest.raises(ValueError):  # nothing was cached by the failed call
            curve.trace(p)


def test_extension_oracle_near_field_bound():
    for p, m in ((173, 2), (31, 3)):  # q = 29929 and 29791, just under the bound 30000
        for curve in (E_MX, elliptic.FIXTURE_CURVES[4]):
            assert elliptic.count_extension_oracle(curve, p, m) == elliptic.count_extension(curve, p, m)


def test_trace_recursion_vs_oracle_subsample():
    for curve in elliptic.FIXTURE_CURVES[:3]:
        for p in (5, 7, 11, 13):
            if p in curve.bad_primes:
                continue
            for m in (1, 2, 3):
                assert elliptic.count_extension(curve, p, m) == elliptic.count_extension_oracle(curve, p, m)


def test_is_supersingular_examples():
    assert elliptic.is_supersingular(E_PX, 7)
    assert not elliptic.is_supersingular(E_PX, 5)
    assert elliptic.is_supersingular(E_P1, 5)


def test_hasse_bound_sweep():
    for curve in elliptic.FIXTURE_CURVES:
        for p in sieve(10**4):
            if p in curve.bad_primes:
                continue
            ap = curve.trace(p)
            assert ap * ap <= 4 * p


def test_local_zeta():
    assert elliptic.local_zeta(E_PX, 7).numerator == (1, 0, 7)
    assert elliptic.local_zeta(E_PX, 7).supersingular
    z5 = elliptic.local_zeta(E_PX, 5)
    assert z5.numerator == (1, -2, 5)
    assert not z5.supersingular


def log_expansion_counts(num, p, m_max):
    """Power-series oracle: N_m = coefficient of T^m in T d/dT log Z(T)
    for Z = (1 - a T + p T^2) / ((1-T)(1-pT)), all over Fractions."""
    terms = m_max + 1

    def mul(a, b):
        out = [Fraction(0)] * terms
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if i + j < terms:
                    out[i + j] += x * y
        return out

    def inv(a):  # 1/a for a[0] = 1
        out = [Fraction(0)] * terms
        out[0] = Fraction(1)
        for k in range(1, terms):
            out[k] = -sum(a[j] * out[k - j] for j in range(1, k + 1))
        return out

    numerator = [Fraction(c) for c in num] + [Fraction(0)] * (terms - 3)
    den1 = [Fraction(1), Fraction(-1)] + [Fraction(0)] * (terms - 2)
    den2 = [Fraction(1), Fraction(-p)] + [Fraction(0)] * (terms - 2)
    z = mul(mul(numerator, inv(den1)), inv(den2))
    dz = [Fraction(k) * z[k] for k in range(terms)]  # T * dZ/dT coefficients
    ratio = mul(dz, inv(z))
    return [int(ratio[m]) for m in range(1, m_max + 1)]


def test_local_zeta_log_expansion():
    for curve in (E_MX, E_PX, E_P1):
        for p in (5, 7, 11, 13):
            if p in curve.bad_primes:
                continue
            z = elliptic.local_zeta(curve, p)
            counts = log_expansion_counts(z.numerator, p, 4)
            for m in range(1, 5):
                assert counts[m - 1] == elliptic.count_extension(curve, p, m)


def test_classify_examples():
    assert elliptic.count_fp(E_MX, 5) == 8  # a_5 = -2, isqrt(20) = 4
    assert elliptic.classify_prime(E_MX, 5) == elliptic.OTHER
    assert elliptic.classify_prime(E_MX, 7) == elliptic.SUPERSINGULAR


def test_classify_trichotomy():
    for curve in elliptic.FIXTURE_CURVES:
        for p in sieve(3000):
            if p in curve.bad_primes:
                continue
            cls = elliptic.classify_prime(curve, p)
            ap = curve.trace(p)
            bound = isqrt(4 * p)
            assert bound > 0
            matches = [
                cls == elliptic.CHAMPION and ap == -bound,
                cls == elliptic.TRAILING and ap == bound,
                cls == elliptic.SUPERSINGULAR and ap == 0,
                cls == elliptic.OTHER and ap not in (0, bound, -bound),
            ]
            assert sum(matches) == 1


def test_first_champion_reverified_by_enumeration():
    rep = elliptic.census(E_MX, 3000)
    assert rep.champion, "no champion prime below 3000"
    p = rep.champion[0]
    fld = build_field(p, 1)
    z = fld.elements()
    squares = {}
    for sq in fld.code(fld.mul(z, z)).tolist():
        squares[sq] = squares.get(sq, 0) + 1
    a, b = fld.from_int(E_MX.a), fld.from_int(E_MX.b)
    rhs = (fld.mul(fld.mul(z, z), z) + fld.mul(a, z) + b) % p
    count = 1 + sum(squares.get(r, 0) for r in fld.code(rhs).tolist())
    assert count == p + 1 + isqrt(4 * p)


def test_census_empty_domain():
    rep = elliptic.census(E_MX, 10, excluded=frozenset(sieve(10)))
    assert rep.counts() == {"champion": 0, "trailing": 0, "supersingular": 0}
    assert rep.rows == ()


def test_census_supersingular_nonempty():
    rep = elliptic.census(E_MX, 1000)
    assert len(rep.supersingular) > 0
    assert all(p % 4 == 3 for p in rep.supersingular)  # CM by i


def test_census_determinism_across_threads():
    one = elliptic.census(E_MX, 5000, threads=1)
    four = elliptic.census(E_MX, 5000, threads=4)
    assert one.rows == four.rows
    assert one.champion == four.champion


def test_census_validation():
    with pytest.raises(ValueError):
        elliptic.census(E_MX, 5)
    with pytest.raises(ValueError):
        elliptic.census(E_MX, 100, excluded=frozenset({5}))


def test_maximal_minimal_check():
    rep = elliptic.maximal_minimal_check(E_PX, 7, 2)
    assert rep.all_hold and len(rep.checks) == 4
    assert elliptic.maximal_minimal_check(E_P1, 5, 1).all_hold
    with pytest.raises(ValueError):
        elliptic.maximal_minimal_check(E_PX, 5, 1)


def test_hasse_weil_bounds():
    hw = elliptic.hasse_weil_bounds(25, 1)
    assert (hw.integer_lower, hw.integer_upper) == (16, 36)
    hw7 = elliptic.hasse_weil_bounds(7, 1)
    assert (hw7.integer_lower, hw7.integer_upper) == (3, 13)  # floor(2 sqrt 7) = 5
    hw0 = elliptic.hasse_weil_bounds(49, 0)
    assert (hw0.integer_lower, hw0.integer_upper) == (50, 50)
    assert hw.ceiling_candidate == parse_puiseux("t + 2t^{1/2} + 1")
    assert hw.floor_candidate == parse_puiseux("t - 2t^{1/2} + 1")
    g2 = elliptic.hasse_weil_bounds(7, 2)
    assert g2.ceiling_candidate == parse_puiseux("t + 4t^{1/2} + 1")
    with pytest.raises(ValueError):
        elliptic.hasse_weil_bounds(6, 1)


def test_bounds_cover_all_fixture_counts():
    for curve in elliptic.FIXTURE_CURVES:
        for p in sieve(500):
            if p in curve.bad_primes:
                continue
            for m in (1, 2):
                q = p**m
                hw = elliptic.hasse_weil_bounds(q, 1)
                assert hw.integer_lower <= elliptic.count_extension(curve, p, m) <= hw.integer_upper


def test_count_source_validation():
    dom = PrimePowerDomain(frozenset({2}), "prime_powers", 100)
    with pytest.raises(ValueError):
        elliptic.count_source(E_MX, dom)  # 3 missing from the excluded set
    ok = elliptic.count_source(E_MX, PrimePowerDomain(E_MX.bad_primes, "prime_powers", 100))
    values = dict((pt.q, a) for pt, a in ok.values())
    assert values[5] == 8 and values[49] == 64
