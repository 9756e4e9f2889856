import re
from itertools import combinations

import pytest

from azw import elliptic, fit, schemes
from azw.arith import ORACLE_FIELD_BOUND, PrimePowerDomain, factorize, sieve
from azw.elliptic import EllipticCurve
from azw.puiseux import parse_puiseux
from azw.schemes import PellConic


def test_count_an_examples():
    assert schemes.count_an(3, 2, 1) == 0  # F_2 minus {0,1} is empty
    assert schemes.count_an(3, 5, 1) == 2
    assert schemes.count_an(1, 7, 1) == 6  # A^1 minus {0} = G_m


def test_count_an_oracle_subsample():
    for p in (2, 3, 5, 7, 11, 13):
        for m in (1, 2):
            if p**m > 256:
                continue
            for n in range(1, 13):
                assert schemes.count_an(n, p, m) == schemes.count_an_oracle(n, p, m)


def test_count_gn_examples():
    assert schemes.count_gn(3, 5, 1) == 2  # F_5 units minus {+-1}
    assert schemes.count_gn(2, 7, 1) == 5
    assert schemes.count_gn(4, 2, 2) == 0  # all of F_4^x is mu_3


def test_count_gn_oracle_subsample():
    for p, m in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (2, 6)):
        for n in (2, 3, 5, 8, 12):
            assert schemes.count_gn(n, p, m) == schemes.count_gn_oracle(n, p, m)


def test_unit_power_census_matches_oracle():
    for p, m in ((3, 2), (2, 4), (7, 1)):
        hits = schemes.unit_power_census(p, m, 11)
        q = p**m
        for n in range(2, 13):
            assert (q - 1) - hits[n - 1] == schemes.count_gn_oracle(n, p, m)


def test_envelopes_an():
    assert schemes.envelopes_an(3, frozenset()) == (parse_puiseux("t - 2"), parse_puiseux("t - 3"))
    assert schemes.envelopes_an(3, frozenset({2})) == (parse_puiseux("t - 3"), parse_puiseux("t - 3"))
    assert schemes.envelopes_an(1, frozenset()) == (parse_puiseux("t - 1"), parse_puiseux("t - 1"))
    # the first allowed prime can exceed n
    assert schemes.envelopes_an(2, frozenset({2, 3})) == (parse_puiseux("t - 2"), parse_puiseux("t - 2"))


def test_envelopes_gn():
    assert schemes.envelopes_gn(5, frozenset({2})) == (parse_puiseux("t - 3"), parse_puiseux("t - 5"))
    assert schemes.envelopes_gn(5, frozenset()) == (parse_puiseux("t - 2"), parse_puiseux("t - 5"))
    assert schemes.envelopes_gn(4, frozenset({2})) == (parse_puiseux("t - 2"), parse_puiseux("t - 4"))


def test_pell_conic_validation():
    with pytest.raises(ValueError):
        PellConic(0)
    with pytest.raises(ValueError):
        PellConic(2)
    with pytest.raises(ValueError):
        PellConic(-5)  # -5 = 3 mod 4
    assert PellConic(9).is_square and not PellConic(5).is_square


def test_count_pell_examples():
    assert schemes.count_pell(PellConic(5), 2, 1) == 3  # (D^2-1)/8 odd
    assert schemes.count_pell(PellConic(5), 3, 1) == 4  # legendre(5,3) = -1
    assert schemes.count_pell(PellConic(12), 3, 1) == 6  # p | D gives 2q


def test_count_pell_oracle_examples():
    # frozen from the oracle itself: x^2+xy-y^2=1 over F_2 has (1,0),(0,1),(1,1)
    assert schemes.count_pell_oracle(PellConic(5), 2, 1) == 3
    # x^2 - y^2 = 1 over F_3: (1,0) and (2,0) only; the formula agrees (q - chi(4,3) = 2)
    assert schemes.count_pell_oracle(PellConic(4), 3, 1) == 2
    assert schemes.count_pell(PellConic(4), 3, 1) == 2
    # square discriminant: the conic is a split torus, q - 1 points
    assert schemes.count_pell_oracle(PellConic(1), 5, 1) == 4


def test_count_pell_matches_oracle_subsample():
    for d in (-20, -19, -15, -8, -4, -3, 1, 4, 5, 8, 9, 12, 13, 16, 17, 21):
        conic = PellConic(d)
        for p in sieve(13):
            for m in (1, 2):
                assert schemes.count_pell(conic, p, m) == schemes.count_pell_oracle(conic, p, m), (d, p, m)


def test_count_pell_oracle_near_field_bound():
    for d in (-47, -20, -3, 1, 5, 12, 16, 41):
        conic = PellConic(d)
        for p, m in ((173, 2), (31, 3)):  # q = 29929 and 29791, just under the bound 30000
            assert schemes.count_pell_oracle(conic, p, m) == schemes.count_pell(conic, p, m), (d, p, m)


def test_count_pell_oracle_past_m_3():
    # odd p holds one field of q elements, so every q up to the bound is
    # counted (3^9, 5^6, 7^5, 11^4, 13^4 at the top); p = 2 holds the (x, y)
    # grid of q^2 elements, so m runs to 7
    for d in (-20, -3, 1, 5, 12, 17):
        conic = PellConic(d)
        for p in (2, 3, 5, 7, 11, 13):
            m = 4
            while (p * p if p == 2 else p) ** m <= ORACLE_FIELD_BOUND:
                assert schemes.count_pell_oracle(conic, p, m) == schemes.count_pell(conic, p, m), (d, p, m)
                m += 1
            assert (p, m) in ((2, 8), (3, 10), (5, 7), (7, 6), (11, 5), (13, 5))


def test_count_pell_oracle_bounds():
    with pytest.raises(ValueError, match=r"grid of \(2\^8\)\^2 points exceeds oracle bound 30000"):
        schemes.count_pell_oracle(PellConic(5), 2, 8)
    with pytest.raises(ValueError):
        schemes.count_pell_oracle(PellConic(5), 197, 2)
    with pytest.raises(ValueError):
        schemes.count_pell_oracle(PellConic(5), 3, 10)


def test_envelopes_pell_cases():
    t = parse_puiseux("t")
    assert schemes.envelopes_pell(PellConic(5), frozenset()) == (parse_puiseux("2t"), parse_puiseux("t - 1"))
    assert schemes.envelopes_pell(PellConic(5), frozenset({5})) == (parse_puiseux("t + 1"), parse_puiseux("t - 1"))
    assert schemes.envelopes_pell(PellConic(4), frozenset({2})) == (parse_puiseux("t - 1"), parse_puiseux("t - 1"))
    assert schemes.envelopes_pell(PellConic(4), frozenset()) == (t, parse_puiseux("t - 1"))
    # odd square: ceiling drops to t-1 once every ramified prime is excluded
    assert schemes.envelopes_pell(PellConic(9), frozenset({3})) == (parse_puiseux("t - 1"), parse_puiseux("t - 1"))
    assert schemes.envelopes_pell(PellConic(9), frozenset()) == (parse_puiseux("2t"), parse_puiseux("t - 1"))


def test_envelopes_pell_match_the_rule_on_the_primes_of_d():
    # envelopes_pell reads a cofactor and factors nothing; the rule on D's
    # primes: 2t while an odd one stays in play, then t + 1 for a non-square
    # D, t - 1 once every one is excluded, else t.  Every D in [-400, 400]
    # and every excluded subset of D's primes and {2, 3, 7}
    two_t, t, t_plus_1, t_minus_1 = (parse_puiseux(x) for x in ("2t", "t", "t + 1", "t - 1"))
    cases = 0
    for d in range(-400, 401):
        if d == 0 or d % 4 not in (0, 1):
            continue
        conic = PellConic(d)
        bad = frozenset(p for p, _ in factorize(d))
        pool = sorted(bad | {2, 3, 7})
        for s in (frozenset(c) for k in range(len(pool) + 1) for c in combinations(pool, k)):
            if not bad - {2} <= s:
                want = two_t
            elif not conic.is_square:
                want = t_plus_1
            elif bad <= s:
                want = t_minus_1
            else:
                want = t
            assert schemes.envelopes_pell(conic, s) == (want, t_minus_1), (d, sorted(s))
            cases += 1
    assert cases == 6552


def test_qfiber_envelopes_pell():
    assert schemes.qfiber_envelopes_pell(PellConic(9)) == (parse_puiseux("t - 1"), parse_puiseux("t - 1"))
    assert schemes.qfiber_envelopes_pell(PellConic(5)) == (parse_puiseux("t + 1"), parse_puiseux("t - 1"))
    assert schemes.qfiber_envelopes_pell(PellConic(16)) == (parse_puiseux("t - 1"), parse_puiseux("t - 1"))


def test_envelope_verification_small():
    for d, s in ((5, frozenset()), (5, frozenset({5})), (12, frozenset({2, 3})), (4, frozenset())):
        conic = PellConic(d)
        dom = PrimePowerDomain(s, "prime_powers", 3000)
        src = schemes.pell_source(conic, dom)
        ceiling, floor = schemes.envelopes_pell(conic, s)
        assert fit.verify_ceiling(ceiling, src, 3).verified, (d, sorted(s))
        assert fit.verify_floor(floor, src, 3).verified, (d, sorted(s))


def test_an_gn_envelope_verification_small():
    dom = PrimePowerDomain(frozenset(), "prime_powers", 2000)
    for n in (1, 3, 7):
        ceiling, floor = schemes.envelopes_an(n)
        src = schemes.an_source(n, dom)
        assert fit.verify_ceiling(ceiling, src, 3).verified
        assert fit.verify_floor(floor, src, 3).verified
    for n in (2, 5, 9):
        ceiling, floor = schemes.envelopes_gn(n)
        src = schemes.gn_source(n, dom)
        assert fit.verify_ceiling(ceiling, src, 3).verified
        assert fit.verify_floor(floor, src, 3).verified


E_BAD = EllipticCurve(-1, 1)  # bad primes 2, 3, 23
# each public count at (p, m); the families have no bad primes
COUNTS = {
    "count_an": (lambda p, m: schemes.count_an(3, p, m), ()),
    "count_gn": (lambda p, m: schemes.count_gn(5, p, m), ()),
    "count_pell": (lambda p, m: schemes.count_pell(PellConic(5), p, m), ()),
    "count_extension": (lambda p, m: elliptic.count_extension(E_BAD, p, m), (2, 3, 23)),
    "trace": (lambda p, m: E_BAD.trace(p), (2, 3, 23)),
}


@pytest.mark.parametrize("name", COUNTS)
def test_counts_refuse_composite_and_bad_p_and_m_below_1(name):
    count, bad = COUNTS[name]
    count(7, 1)
    curve = name in ("count_extension", "trace")
    for p in (1, 0, -7, 15, 91, 10**4 + 1, *bad):
        message = f"p={p} is not a good prime for {E_BAD.label}" if curve else f"{p} is not prime"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            count(p, 1)
    if name != "trace":
        with pytest.raises(ValueError, match="^m must be >= 1$"):
            count(7, 0)


def test_family_sources_refuse_small_n():
    dom = PrimePowerDomain(frozenset(), "prime_powers", 50)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        schemes.an_source(0, dom)
    with pytest.raises(ValueError, match="^n must be >= 2$"):
        schemes.gn_source(1, dom)
