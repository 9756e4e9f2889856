from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from azw import elliptic, fit
from azw.acceptance import CEILING_E, FLOOR_E
from azw.arith import PrimePowerDomain, build_field, is_prime, isqrt, sieve
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


def test_trace_rejects_bad_and_composite_p_after_good_ones():
    curve = EllipticCurve(-1, 1)  # bad primes 2, 3, 23
    for p in sieve(100):
        if p not in curve.bad_primes:
            curve.trace(p)
    for p in (2, 3, 23, 1, 15, 25, 91):
        with pytest.raises(ValueError):
            curve.trace(p)
        with pytest.raises(ValueError):  # a failed call leaves nothing behind
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
        rows = elliptic.census(curve, 10**4).rows  # one batch of traces per curve
        assert [p for p, _, _ in rows] == [p for p in sieve(10**4) if p not in curve.bad_primes]
        for p, ap, _ in rows:
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
        for p, ap, cls in elliptic.census(curve, 3000).rows:
            assert (ap, cls) == (curve.trace(p), elliptic.classify_prime(curve, p))
            bound = isqrt(4 * p)
            assert bound > 0
            matches = [
                cls == elliptic.CHAMPION and ap == -bound,
                cls == elliptic.TRAILING and ap == bound,
                cls == elliptic.SUPERSINGULAR and ap == 0,
                cls == elliptic.OTHER and ap not in (0, bound, -bound),
            ]
            assert sum(matches) == 1


def test_census_batches_its_traces_and_classifies_through_classify_prime(monkeypatch):
    batches, classified = [], []
    monkeypatch.setattr(
        elliptic, "_traces", lambda a, b, ps, f=elliptic._traces: batches.append(ps) or f(a, b, ps)
    )
    monkeypatch.setattr(
        elliptic, "classify_prime", lambda c, p, f=elliptic.classify_prime: classified.append(p) or f(c, p)
    )
    curve = elliptic.EllipticCurve(-1, 1)
    rep = elliptic.census(curve, 3000)
    primes = [p for p in sieve(3000) if p not in curve.bad_primes]
    assert batches == [primes] and classified == primes
    assert [p for p, _, _ in rep.rows] == primes


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


def test_maximal_minimal_check_computes_a_p_once(monkeypatch):
    batches = []
    monkeypatch.setattr(
        elliptic, "_traces", lambda a, b, ps, f=elliptic._traces: batches.append(ps) or f(a, b, ps)
    )
    rep = elliptic.maximal_minimal_check(E_PX, 7, 2)
    assert batches == [[7]]
    assert [(c.m, c.actual) for c in rep.checks] == [
        (m, elliptic.count_extension_oracle(E_PX, 7, m)) for m in (2, 4)
    ] + [(6, 7**6 + 2 * 7**3 + 1), (8, 7**8 - 2 * 7**4 + 1)]


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


def ec_mul(k, pt, a, p):
    """k pt on y^2 = x^3 + ax + b over F_p (b is not needed), by affine
    double-and-add in Python integers, apart from the kernel; None is O."""

    def add(u, v):
        if u is None:
            return v
        if v is None:
            return u
        (x1, y1), (x2, y2) = u, v
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    out = None
    for bit in bin(k)[2:]:
        out = add(out, out)
        if bit == "1":
            out = add(out, pt)
    return out


def test_bsgs_trace_equals_char_sum_from_the_crossover_to_20000():
    # every good p above 229 (Mestre's bound), so below and above BSGS_MIN_P,
    # in one kernel call per curve; the fixtures and the isogenous pairs,
    # CM curves included, since the kernel does not need CM
    curves = {(c.a, c.b) for c in elliptic.FIXTURE_CURVES}
    curves |= {ab for pair in ISOGENOUS_PAIRS.values() for ab in pair}
    for a, b in sorted(curves):
        bad = EllipticCurve(a, b).bad_primes
        primes = [p for p in sieve(20000) if p > 229 and p not in bad]
        expected = [elliptic._trace_char_sum(a, b, p) for p in primes]
        assert elliptic._trace_bsgs(a, b, primes) == expected, (a, b)


def test_bsgs_trace_equals_char_sum_near_a_million():
    primes = [p for p in range(10**6, 10**6 + 200) if is_prime(p)][:10]
    assert len(primes) == 10
    for curve in elliptic.FIXTURE_CURVES:
        a, b = curve.a, curve.b
        assert elliptic._trace_bsgs(a, b, primes) == [elliptic._trace_char_sum(a, b, p) for p in primes]


@given(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.lists(st.integers(230, 10**5), min_size=1, max_size=8),
)
def test_bsgs_trace_equals_char_sum_on_random_curves(a, b, starts):
    # one batch of mixed primes, small and large, repeats allowed
    assume(4 * a**3 + 27 * b**2 != 0)
    bad = EllipticCurve(a, b).bad_primes
    primes = [next(q for q in range(n, 2 * n) if is_prime(q)) for n in starts]
    primes = [p for p in primes if p not in bad]
    assert elliptic._trace_bsgs(a, b, primes) == [elliptic._trace_char_sum(a, b, p) for p in primes]


def test_bsgs_lane_blocks_do_not_change_the_census(monkeypatch):
    rows = elliptic.census(EllipticCurve(-15, 22), 20000).rows
    monkeypatch.setattr(elliptic, "BSGS_BLOCK_LANES", 7)
    assert elliptic.census(EllipticCurve(-15, 22), 20000).rows == rows


# the first primes above 2^31 with p = 3 mod 4, where -1 is a non-square
# and y = f^((p+1)/4) is a square root of any square f
PRIMES_ABOVE_2_31 = (2147483659, 2147483743, 2147483783, 2147483867)


def test_bsgs_python_int_lanes_above_2_31():
    a, b = -1, 1
    assert all(is_prime(p) and p % 4 == 3 for p in PRIMES_ABOVE_2_31)
    traces = elliptic._trace_bsgs(a, b, list(PRIMES_ABOVE_2_31))
    for p, t in zip(PRIMES_ABOVE_2_31, traces):
        assert t is not None and t * t <= 4 * p
        # E and its twist y^2 = x^3 + ax - b by -1, of trace -t: their first
        # five points with x >= 0 each have order dividing p + 1 -+ t
        for sign, twist_b in ((1, b), (-1, -b)):
            points = []
            for x in range(100):
                f = (x**3 + a * x + twist_b) % p
                y = pow(f, (p + 1) // 4, p)
                if f and y * y % p == f:
                    points.append((x, y))
            assert len(points) >= 5
            for pt in points[:5]:
                assert ec_mul(p + 1 - sign * t, pt, a, p) is None
    # small primes in the same block run on Python ints too: still exact
    small = [p for p in sieve(5000) if p > 229 and p != 23][:40]
    mixed = elliptic._trace_bsgs(a, b, small + list(PRIMES_ABOVE_2_31))
    assert mixed == [elliptic._trace_char_sum(a, b, p) for p in small] + traces


def test_bsgs_only_the_twist_decides(monkeypatch):
    # y^2 = x^3 - x at p = 3529: f(0) = f(1) = 0, and x = 2..11 give squares
    # f(x), so points of E itself, each with two or more t in the Hasse
    # interval (found here by one scalar multiplication per t); x = 12 is the
    # first non-square and decides on the twist
    a, b, p = -1, 0, 3529
    assert elliptic._trace_char_sum(a, b, p) == -70
    bound = isqrt(4 * p)
    for x in range(2, 12):
        f = (x**3 + a * x + b) % p
        assert pow(f, (p - 1) // 2, p) == 1
        ff, pt = f * f % p, (f * x % p, f * f % p)
        ts = [t for t in range(-bound, bound + 1) if ec_mul(p + 1 - t, pt, a * ff % p, p) is None]
        assert len(ts) >= 2 and -70 in ts
        lane = [np.array([v]) for v in (a * ff % p, *pt, p)]
        _, certified = elliptic._unique_traces(*lane)
        assert not certified[0]
    assert elliptic._trace_bsgs(a, b, [p]) == [-70]
    # with x = 0..11 only, every tried point is ambiguous: the lane stays
    # uncertified, and the trace is the character sum's
    monkeypatch.setattr(elliptic, "BSGS_POINTS", 12)
    assert elliptic._trace_bsgs(a, b, [p, 3533]) == [None, elliptic._trace_char_sum(a, b, 3533)]


# b = 0 with these a, and a = 0 with these b, give every quartic and every
# sextic residue symbol below 5000 (checked by test_cm_trace_equals_char_sum)
CM_CURVES = [(a, 0) for a in (1, -1, 2, -2, 3, -3, 4, -4, 5, -7)] + [
    (0, b) for b in (1, -1, 2, -2, 3, -3, 4, 16, -16, 432)
]


def cm_case(a, b, p, t):
    """The index of t among the values a_p may take by the closed form: for
    b = 0, 2 Re(u pi) over the units u = 1, -i, -1, i; for a = 0,
    -Tr(u pi) over u = 1, w^2, w, -1, -w^2, -w.  The primary pi is found
    by search over the representations of p, apart from _trace_cm."""
    n = isqrt(4 * p)
    if b == 0:
        x, y = next(
            (x, y)
            for y in range(0, isqrt(p) + 1, 2)
            for x in (isqrt(p - y * y), -isqrt(p - y * y))
            if x * x + y * y == p and (x + y) % 4 == 1
        )
        return [2 * x, 2 * y, -2 * x, -2 * y].index(t)
    u, v = next(
        (u, v)
        for v in range(-n, n + 1)
        if v % 3 == 0 and 4 * p >= 3 * v * v
        for u in ((v + isqrt(4 * p - 3 * v * v)) // 2, (v - isqrt(4 * p - 3 * v * v)) // 2)
        if u * u - u * v + v * v == p and u % 3 == 2
    )
    return [v - 2 * u, u - 2 * v, u + v, 2 * u - v, 2 * v - u, -u - v].index(t)


def test_cm_trace_equals_char_sum():
    cases = {4: set(), 6: set()}  # units hit, for j = 1728 and j = 0
    for a, b in CM_CURVES:
        curve = EllipticCurve(a, b)
        for p in sieve(5000):
            if p in curve.bad_primes:
                continue
            t = elliptic._trace_char_sum(a, b, p)
            assert elliptic._trace_cm(a, b, p) == t, (a, b, p)
            if t:
                cases[4 if b == 0 else 6].add(cm_case(a, b, p, t))
    assert cases == {4: set(range(4)), 6: set(range(6))}


def test_cm_trace_equals_bsgs_near_a_million():
    primes = [p for p in range(10**6, 10**6 + 400) if is_prime(p)][:20]
    assert len(primes) == 20
    for a, b in CM_CURVES:
        assert [elliptic._trace_cm(a, b, p) for p in primes] == elliptic._trace_bsgs(a, b, primes), (a, b)


@given(st.booleans(), st.integers(-10**6, 10**6), st.integers(5, 2 * 10**5))
def test_cm_trace_equals_char_sum_on_random_curves(j0, c, n):
    assume(c != 0)
    a, b = (0, c) if j0 else (c, 0)
    p = next(q for q in range(n, 2 * n) if is_prime(q))
    assume(p <= 2 * 10**5 and p not in EllipticCurve(a, b).bad_primes)
    assert elliptic._trace_cm(a, b, p) == elliptic._trace_char_sum(a, b, p)


def test_trace_dispatch(monkeypatch):
    calls = []
    for name in ("_trace_cm", "_trace_bsgs", "_trace_char_sum"):
        original = getattr(elliptic, name)
        monkeypatch.setattr(
            elliptic, name, lambda a, b, p, f=original, n=name: calls.append((n, p)) or f(a, b, p)
        )
    below = sieve(elliptic.BSGS_MIN_P)[-1]  # the primes on either side of the crossover
    above = next(p for p in range(elliptic.BSGS_MIN_P + 1, 2 * elliptic.BSGS_MIN_P) if is_prime(p))
    for (a, b), primes, paths in (
        ((0, 7), [11, 10007], [("_trace_cm", 11), ("_trace_cm", 10007)]),
        ((3, 0), [10007], [("_trace_cm", 10007)]),
        ((-1, 1), [101, below], [("_trace_char_sum", 101), ("_trace_char_sum", below)]),
        # every prime above the crossover in one batch, the rest one by one
        (
            (-1, 1),
            [101, above, 10007, 10009],
            [("_trace_bsgs", [above, 10007, 10009]), ("_trace_char_sum", 101)],
        ),
    ):
        calls.clear()
        elliptic._traces(a, b, primes)
        assert calls == paths, (a, b)
    # a lane that no tried point certifies falls back to the character sum
    monkeypatch.setattr(
        elliptic, "_trace_bsgs", lambda a, b, ps: calls.append(("_trace_bsgs", ps)) or [None] * len(ps)
    )
    expected = elliptic._trace_char_sum(-1, 1, 10007)
    calls.clear()
    assert EllipticCurve(-1, 1).trace(10007) == expected
    assert calls == [("_trace_bsgs", [10007]), ("_trace_char_sum", 10007)]


# (a, b) of a curve and of a 2-isogenous curve: isogenous curves have the
# same a_p at every prime good for both, so each curve checks the other.
# x^3 + 1 takes the closed form and x^3 - 15x + 22 the character sum and,
# above the crossover, the batched BSGS, so that pair checks one path
# against the other
ISOGENOUS_PAIRS = {
    "x^3-x~x^3+4x": ((-1, 0), (4, 0)),
    "x^3+x~x^3-4x": ((1, 0), (-4, 0)),
    "x^3+1~x^3-15x+22": ((0, 1), (-15, 22)),
}


@pytest.mark.parametrize("pair", ISOGENOUS_PAIRS.values(), ids=ISOGENOUS_PAIRS.keys())
def test_isogenous_curves_agree(pair):
    e1, e2 = (EllipticCurve(a, b) for a, b in pair)
    bad = e1.bad_primes | e2.bad_primes
    # each census asks for the traces of all its primes in one batch
    assert elliptic.census(e1, 20000, bad).rows == elliptic.census(e2, 20000, bad).rows
    dom = PrimePowerDomain(bad, "prime_powers", 20000)
    for check, f in ((fit.verify_ceiling, CEILING_E), (fit.verify_floor, FLOOR_E)):
        v1, v2 = (check(f, elliptic.count_source(e, dom), 2, puiseux_mode=True) for e in (e1, e2))
        assert v1.verified
        assert (v1.status, v1.witnesses, v1.violation) == (v2.status, v2.witnesses, v2.violation)
