import dataclasses
import math
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from azw import arith, elliptic, fit, monoid, schemes
from azw.arith import PrimePowerDomain, sieve
from azw.fit import (
    BOUND_VIOLATED,
    INSUFFICIENT_WITNESSES,
    NON_INTEGRAL_AT_ONE,
    VERIFIED,
)
from azw.puiseux import PuiseuxPoly, parse_puiseux
from certified import bounds, ceil_eval, eval_exact, floor_eval

E_MX = elliptic.FIXTURE_CURVES[0]
CEIL_E = parse_puiseux("t + 2t^{1/2} + 1")
FLOOR_E = parse_puiseux("t - 2t^{1/2} + 1")


def elliptic_src(limit, primes_only=False):
    kind = "primes_only" if primes_only else "prime_powers"
    dom = PrimePowerDomain(E_MX.bad_primes, kind, limit)
    if primes_only:
        return fit.SequenceSource("#E(F_p)", dom, lambda pt: elliptic.count_fp(E_MX, pt.p))
    return elliptic.count_source(E_MX, dom)


def test_p1_exact_equality_everywhere():
    src = monoid.zlift_source(monoid.projective_space(1), PrimePowerDomain(frozenset(), "prime_powers", 500))
    v = fit.verify_ceiling(parse_puiseux("t + 1"), src, 3)
    assert v.status == VERIFIED
    assert list(v.witnesses[:5]) == [2, 3, 4, 5, 7]
    assert len(v.witnesses) == len(src.values())


def test_elliptic_puiseux_ceiling():
    v = fit.verify_ceiling(CEIL_E, elliptic_src(10**4), 2, puiseux_mode=True)
    assert v.status == VERIFIED
    assert 49 in v.witnesses  # 7 is supersingular: #E(F_49) = 49 + 14 + 1


def test_elliptic_puiseux_floor():
    v = fit.verify_floor(FLOOR_E, elliptic_src(3 * 10**4), 1, puiseux_mode=True)
    assert v.status == VERIFIED
    assert 2401 in v.witnesses  # 7^4: count = 2401 - 2*49 + 1 = 2304


def test_bound_violated_at_first_supersingular():
    v = fit.verify_ceiling(parse_puiseux("t"), elliptic_src(10**3), 3, puiseux_mode=True)
    assert v.status == BOUND_VIOLATED
    assert v.violation is not None
    assert v.violation.n == 5 and v.violation.count == 8
    assert v.violation.candidate_value == "5"


def test_floor_gn_witnesses_one_mod_n_minus_one():
    n = 5
    src = schemes.gn_source(n, PrimePowerDomain(frozenset(), "prime_powers", 2000))
    v = fit.verify_floor(parse_puiseux("t - 5"), src, 3)
    assert v.status == VERIFIED
    assert all(q % (n - 1) == 1 for q in v.witnesses)


def test_floor_pell():
    src = schemes.pell_source(schemes.PellConic(5), PrimePowerDomain(frozenset(), "prime_powers", 2000))
    assert fit.verify_floor(parse_puiseux("t - 1"), src, 3).status == VERIFIED


def test_non_integral_at_one():
    src = elliptic_src(100)
    v = fit.verify_ceiling(parse_puiseux("(1/2)t^{1/2} + 2t"), src, 1, puiseux_mode=True)
    assert v.status == NON_INTEGRAL_AT_ONE
    # same candidate in plain polynomial mode is not subject to the value-at-1 rule
    v2 = fit.verify_ceiling(parse_puiseux("(1/2)t^{1/2} + 2t"), src, 1, puiseux_mode=False)
    assert v2.status != NON_INTEGRAL_AT_ONE


def test_insufficient_witnesses():
    src = monoid.zlift_source(monoid.multiplicative_group(), PrimePowerDomain(frozenset(), "prime_powers", 300))
    v = fit.verify_ceiling(parse_puiseux("t + 1"), src, 1)  # q+1 > q-1 always
    assert v.status == INSUFFICIENT_WITNESSES
    assert v.witnesses == ()


def test_half_integer_candidate_has_no_witnesses():
    # floor(q + 1/2) and ceil(q - 1/2) both meet the count q, but f(q) never does
    src = fit.SequenceSource("q", PrimePowerDomain(frozenset(), "prime_powers", 100), lambda pt: pt.q)
    up = fit.verify_ceiling(parse_puiseux("t + 1/2"), src, 1)
    down = fit.verify_floor(parse_puiseux("t - 1/2"), src, 1)
    assert up.status == down.status == INSUFFICIENT_WITNESSES
    assert up.witnesses == down.witnesses == ()


def test_reject_linear_family_control_case():
    src = monoid.zlift_source(monoid.multiplicative_group(), PrimePowerDomain(frozenset(), "prime_powers", 500))
    reports = fit.reject_linear_family(src, -2, 0, 3)
    by_c = {r.c: r for r in reports}
    assert by_c[-1].ceiling.status == VERIFIED  # exact count q - 1
    assert by_c[-1].floor.status == VERIFIED
    assert by_c[0].floor.status == BOUND_VIOLATED  # t <= q - 1 already fails at q = 2
    assert by_c[-2].ceiling.status == BOUND_VIOLATED


def test_reject_linear_family_elliptic():
    src = elliptic_src(2000, primes_only=True)
    reports = fit.reject_linear_family(src, 0, 3, 3)
    for r in reports:
        assert r.ceiling.status == BOUND_VIOLATED
    assert reports[0].ceiling.violation.n == 5


def test_search_an3():
    src = schemes.an_source(3, PrimePowerDomain(frozenset(), "prime_powers", 2000))
    rep = fit.search_polynomial(src, 1, -5, 5, 3)
    assert rep.ceiling == (parse_puiseux("t - 2"),)
    assert not rep.ceiling_ambiguous
    assert rep.floor == (parse_puiseux("t - 3"),)
    assert rep.candidates_tested == 121


def test_search_constant_envelopes():
    src = monoid.zlift_source(monoid.spec_f1n(3), PrimePowerDomain(frozenset(), "prime_powers", 2000))
    rep = fit.search_polynomial(src, 0, -5, 5, 3)
    assert rep.ceiling == (PuiseuxPoly([(3, 0)]),)
    assert rep.floor == (PuiseuxPoly([(1, 0)]),)


def test_search_elliptic_primes_finds_nothing():
    src = elliptic_src(5000, primes_only=True)
    rep = fit.search_polynomial(src, 1, -5, 5, 3)
    assert rep.ceiling == ()
    assert rep.floor == ()


def test_search_flags_ambiguity_at_tiny_limit():
    # counts of one cyclic-torsion point over q = 2,3,4 are 1,1,3: both the
    # constant 3 and t-1 survive as ceilings, which must raise the flag
    src = monoid.zlift_source(monoid.spec_f1n(3), PrimePowerDomain(frozenset(), "prime_powers", 4))
    rep = fit.search_polynomial(src, 1, -1, 3, 1)
    assert PuiseuxPoly([(3, 0)]) in rep.ceiling
    assert parse_puiseux("t - 1") in rep.ceiling
    assert rep.ceiling_ambiguous


def test_search_validation():
    src = elliptic_src(100)
    with pytest.raises(ValueError):
        fit.search_polynomial(src, 4, -5, 5)
    with pytest.raises(ValueError):
        fit.search_polynomial(src, 3, -100, 100)


def test_anti_symmetry_interpolation():
    # both envelopes verified with shared witnesses => exact interpolation
    x = monoid.projective_space(2)
    src = monoid.zlift_source(x, PrimePowerDomain(frozenset(), "prime_powers", 400))
    f = monoid.ceiling_poly(x)
    vc = fit.verify_ceiling(f, src, 1)
    vf = fit.verify_floor(f, src, 1)
    assert vc.status == VERIFIED and vf.status == VERIFIED
    assert set(vc.witnesses) & set(vf.witnesses)
    assert vc.violation is None and vf.violation is None
    for pt, count in src.values():
        assert eval_exact(f, pt.q) == count


def test_soundness_recheck():
    x = monoid.spec_f1n(4)
    src = monoid.zlift_source(x, PrimePowerDomain(frozenset({2}), "prime_powers", 1500))
    f = monoid.floor_poly(x, frozenset({2}))
    v = fit.verify_floor(f, src, 3)
    assert v.status == VERIFIED
    assert len(v.witnesses) >= v.witness_threshold
    witnesses = set(v.witnesses)
    for pt, count in src.values():
        assert ceil_eval(f, pt.q) <= count
        assert (ceil_eval(f, pt.q) == count) == (pt.q in witnesses)


def test_domain_monotonicity():
    # dropping primes from the domain can only remove constraints
    x = monoid.spec_f1n(6)
    f = monoid.ceiling_poly(x)
    small = fit.verify_ceiling(f, monoid.zlift_source(x, PrimePowerDomain(frozenset(), "prime_powers", 2000)), 3)
    bigger_s = fit.verify_ceiling(f, monoid.zlift_source(x, PrimePowerDomain(frozenset({2}), "prime_powers", 2000)), 3)
    assert small.status == VERIFIED
    assert bigger_s.status != BOUND_VIOLATED


def test_verdict_invariants_and_summary():
    v = fit.verify_ceiling(parse_puiseux("t"), elliptic_src(200), 3, puiseux_mode=True)
    assert v.status == BOUND_VIOLATED and v.violation is not None
    assert "violated at n=5" in v.summary()
    ok = fit.verify_ceiling(CEIL_E, elliptic_src(10**4), 2, puiseux_mode=True)
    assert ok.verified and len(ok.witnesses) >= ok.witness_threshold
    assert ok.excluded == E_MX.bad_primes
    assert ok.scanned_limit == 10**4


def test_summary_prints_excluded_as_a_set():
    v = fit.verify_ceiling(CEIL_E, elliptic_src(200), 2, puiseux_mode=True)
    assert "excluded {2, 3})" in v.summary()
    src = monoid.zlift_source(monoid.projective_space(1), PrimePowerDomain(frozenset(), "prime_powers", 50))
    assert "excluded {})" in fit.verify_ceiling(parse_puiseux("t + 1"), src, 3).summary()


def test_sequence_source_counts_once_when_built():
    calls = []
    dom = PrimePowerDomain(frozenset(), "prime_powers", 50)
    src = fit.SequenceSource("probe", dom, lambda pt: calls.append(pt.q) or pt.q)
    assert calls == [pt.q for pt in dom.points]  # every point, at construction
    assert src.values() == src.values() == list(zip(dom.points, calls))
    assert len(calls) == len(src.values())  # values() reads the held counts, calling fn no more


def test_sources_check_primes_once_and_batch_their_traces(monkeypatch):
    # the family sources test primality only where the domain is validated
    tested = []

    def counted(n, is_prime=arith.is_prime):
        tested.append(n)
        return is_prime(n)

    for module in (arith, schemes):
        monkeypatch.setattr(module, "is_prime", counted)
    excluded = frozenset({2, 7})
    dom = PrimePowerDomain(excluded, "prime_powers", 5000)
    assert sorted(tested) == sorted(excluded)
    tested.clear()
    conic = schemes.PellConic(-20)
    sources = [
        (schemes.pell_source(conic, dom), lambda p, m: schemes.count_pell(conic, p, m)),
        (schemes.an_source(3, dom), lambda p, m: schemes.count_an(3, p, m)),
        (schemes.gn_source(5, dom), lambda p, m: schemes.count_gn(5, p, m)),
    ]
    assert tested == []
    for src, count in sources:  # the unchecked counts equal the checked ones
        assert src.values() == [(pt, count(pt.p, pt.m)) for pt in dom.points]

    # a curve's source asks for the traces of all its primes in one batch
    batches = []
    monkeypatch.setattr(
        elliptic, "_traces", lambda a, b, ps, f=elliptic._traces: batches.append(ps) or f(a, b, ps)
    )
    curve = elliptic.EllipticCurve(-1, 1)
    dom = PrimePowerDomain(curve.bad_primes, "prime_powers", 5000)
    # and reads its primes from the domain's points, sieving nothing again
    sieved = []
    for module in (arith, elliptic):
        monkeypatch.setattr(module, "sieve", lambda n, f=sieve: sieved.append(n) or f(n))
    src = elliptic.count_source(curve, dom)
    for f, verify in ((CEIL_E, fit.verify_ceiling), (FLOOR_E, fit.verify_floor)) * 3:
        verify(f, src, 1, puiseux_mode=True)
    assert batches == [[p for p in sieve(5000) if p not in curve.bad_primes]]
    assert sieved == []


def test_curves_and_sources_are_frozen_values():
    src = elliptic_src(50)
    curve = elliptic.EllipticCurve(-1, 0, "x")
    for obj, name in ((curve, "a"), (curve, "label"), (src, "label"), (src, "points")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    assert curve == elliptic.EllipticCurve(-1, 0) == E_MX
    assert hash(curve) == hash(elliptic.EllipticCurve(-1, 0))
    assert curve.label == "x" and E_MX.label == "y^2=x^3-x"
    assert curve != elliptic.EllipticCurve(-1, 1)


# --- offsets decisions against one certified comparison per point --------------


def six_decimals(x: Fraction) -> str:
    """x rounded half to even at six decimals (round() of a Fraction), with
    the sign of a negative x kept at 0."""
    units = round(abs(x) * 10**6)
    return f"{'-' if x < 0 else ''}{units // 10**6}.{units % 10**6:06d}"


def certified_scan(f, src, mode, threshold, puiseux_mode=False):
    """The verdict on f from its certified floor and ceiling at every
    point: the bound must hold at each point up to the first violation, and a
    witness is f(q) = A_q, or in puiseux mode floor(f(q)) = A_q (ceiling) or
    ceil(f(q)) = A_q (floor).  A violation prints f(q) exactly when f is
    ordinary and otherwise as the interval of certified.bounds at
    2 * (64 + bit_length(N)) bits, N/2 the top exponent, each end rounded by
    Fraction to six decimals.  For the small values drawn here that interval
    is far narrower than a six-decimal digit, so both ends print as f(q)
    rounded, as fit's do; it is no reference for values of 30 or more digits."""

    def verdict(status, witnesses=(), violation=None):
        return fit.Verdict(
            status, mode, tuple(witnesses), violation, src.domain.limit, threshold,
            puiseux_mode, src.label, src.domain.excluded,
        )

    if puiseux_mode and f.value_at_one()[0].denominator != 1:
        return verdict(NON_INTEGRAL_AT_ONE)
    witnesses = []
    for pt, count in src.values():
        q = pt.q
        lo, hi = floor_eval(f, q), ceil_eval(f, q)
        if count > lo if mode == "ceiling" else count < hi:
            if all(e.denominator == 1 for _, e in f.terms):
                value = str(eval_exact(f, q))
            else:
                low, high, den = bounds(f, q, 2 * (64 + (2 * f.terms[0][1]).numerator.bit_length()))
                value = f"[{six_decimals(Fraction(low, den))}, {six_decimals(Fraction(high, den))}]"
            return verdict(BOUND_VIOLATED, witnesses, fit.Violation(q, count, value))
        if (lo if mode == "ceiling" else hi) == count and (puiseux_mode or lo == hi):
            witnesses.append(q)
    return verdict(VERIFIED if len(witnesses) >= threshold else INSUFFICIENT_WITNESSES, witnesses)


def brute_search(src, degree, lo, hi, threshold):
    ceilings, floors = [], []
    for coeffs in product(range(lo, hi + 1), repeat=degree + 1):
        cand = PuiseuxPoly([(c, k) for k, c in enumerate(coeffs)])
        if certified_scan(cand, src, "ceiling", threshold).verified:
            ceilings.append(cand)
        if certified_scan(cand, src, "floor", threshold).verified:
            floors.append(cand)
    return fit.SearchReport(
        ceiling=tuple(ceilings),
        floor=tuple(floors),
        ceiling_ambiguous=len(ceilings) > 1,
        floor_ambiguous=len(floors) > 1,
        candidates_tested=(hi - lo + 1) ** (degree + 1),
        scanned_limit=src.domain.limit,
        witness_threshold=threshold,
    )


def brute_reject(src, c_lo, c_hi, threshold):
    return [
        fit.LinearCandidateReport(
            c,
            certified_scan(PuiseuxPoly.linear(c), src, "ceiling", threshold),
            certified_scan(PuiseuxPoly.linear(c), src, "floor", threshold),
        )
        for c in range(c_lo, c_hi + 1)
    ]


def assert_same_reports(got, want):
    assert got == want
    for g, w in zip(got, want):
        assert g.ceiling.summary() == w.ceiling.summary()
        assert g.floor.summary() == w.floor.summary()


# a count lifted by 2^62 - 1 reaches 2^62 exactly when it was >= 1 (and by
# 1 - 2^62, -2^62 when it was <= -1): small counts of both signs straddle
# the int64 bound of the held counts
LIFTS = (0, 2**62 - 1, 1 - 2**62)


@st.composite
def integer_sources(draw, coeffs=None, noise=2, lift=None):
    """The floor of a polynomial (small integer coefficients unless `coeffs`
    are given) plus per-point noise in [-noise, noise], so that envelopes in
    small boxes both exist and fail.  The counts from a drawn point on are
    lifted by a drawn value of LIFTS, or from the first point on by `lift`."""
    kind = draw(st.sampled_from(["prime_powers", "primes_only"]))
    excluded = draw(st.sets(st.sampled_from([2, 3, 5])))
    dom = PrimePowerDomain(excluded, kind, draw(st.integers(2, 60)))
    qs = [pt.q for pt in dom.points]
    if coeffs is None:
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    errors = draw(st.lists(st.integers(-noise, noise), min_size=len(qs), max_size=len(qs)))
    start = 0 if lift is not None else draw(st.integers(0, len(qs)))
    lift = draw(st.sampled_from(LIFTS)) if lift is None else lift
    counts = {
        q: math.floor(sum(c * q**k for k, c in enumerate(coeffs))) + e + lift * (i >= start)
        for i, (q, e) in enumerate(zip(qs, errors))
    }
    return fit.SequenceSource("drawn", dom, lambda pt: counts[pt.q])


@given(integer_sources())
def test_held_arrays_are_the_values(src):
    points = src.values()
    assert src.domain.qs.dtype == np.int64 and src.domain.qs.tolist() == [pt.q for pt, _ in points]
    assert [pt for pt, _ in points] == list(src.domain.points)
    assert src.counts.tolist() == [count for _, count in points] == [src.fn(pt) for pt in src.domain.points]
    assert src.bound == max((abs(count) for _, count in points), default=0)
    assert src.counts.dtype == (np.int64 if src.bound < 2**62 else object)


@pytest.mark.parametrize("kind", ["prime_powers", "primes_only"])
def test_an_empty_domain_holds_int64_arrays(kind):
    src = fit.SequenceSource("empty", PrimePowerDomain(frozenset({2}), kind, 2), lambda pt: 2**70)
    assert src.values() == [] and src.bound == 0
    assert src.domain.qs.dtype == src.counts.dtype == np.int64
    assert fit._offsets(src, [1], [[1]], 2, [(1, 0)]).shape == (1, 0)
    # no point bounds the offsets' size: a coefficient past int64 takes the object path
    for f in (parse_puiseux(f"{2**70}t"), parse_puiseux(f"t + {2**70}t^{{1/2}}")):
        assert fit.verify_ceiling(f, src, 3).status == INSUFFICIENT_WITNESSES


@given(
    integer_sources(),
    st.integers(0, 3).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, 4 if d < 3 else 2))),
    st.integers(-4, 3),
    st.integers(0, 4),
    st.integers(1, 3),
)
def test_search_matches_one_scan_per_candidate(src, degree_width, lo, threshold, block_rows):
    degree, width = degree_width
    hi = lo + width - 1
    # blocks of 1-3 tuples, so that the tuples of one search split across blocks
    entries = block_rows * max(len(src.values()), width, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fit, "SEARCH_BLOCK_ENTRIES", entries)
        got = fit.search_polynomial(src, degree, lo, hi, threshold)
    assert got == brute_search(src, degree, lo, hi, threshold)


@given(
    integer_sources(),
    st.integers(-6, 3),
    st.integers(0, 8),
    st.integers(0, 4),
)
def test_reject_linear_matches_one_scan_per_candidate(src, c_lo, span, threshold):
    c_hi = c_lo + span
    assert_same_reports(
        fit.reject_linear_family(src, c_lo, c_hi, threshold),
        brute_reject(src, c_lo, c_hi, threshold),
    )


def decide_each(src, c_lo, c_hi, threshold):
    """The reports of reject_linear_family from one _decide per mode and c."""
    offsets = fit._offsets(src, [1], [[1]])[0]
    return [
        fit.LinearCandidateReport(
            c,
            fit._decide(src, "ceiling", threshold, offsets, c, 1, False),
            fit._decide(src, "floor", threshold, offsets, c, 1, False),
        )
        for c in range(c_lo, c_hi + 1)
    ]


@given(
    integer_sources(coeffs=[0, 1]),
    st.sampled_from(LIFTS),
    st.integers(-4, 2),
    st.integers(0, 8),
    st.integers(0, 4),
)
def test_reject_linear_matches_decide_for_each_c(src, level, shift, span, threshold):
    # counts q + e, e in [-2, 2], lifted from a drawn point on: offsets with
    # ties at every level, past 2^62 (held as Python ints) when lifted, and c
    # around the unlifted or the lifted offsets
    c_lo = level + shift
    assert_same_reports(
        fit.reject_linear_family(src, c_lo, c_lo + span, threshold),
        decide_each(src, c_lo, c_lo + span, threshold),
    )


@pytest.mark.parametrize("kind", ["prime_powers", "primes_only"])
def test_reject_linear_on_an_empty_domain(kind):
    src = fit.SequenceSource("empty", PrimePowerDomain(frozenset({2}), kind, 2), lambda pt: 0)
    for threshold, status in ((0, VERIFIED), (1, INSUFFICIENT_WITNESSES)):
        reports = fit.reject_linear_family(src, -2, 2, threshold)
        assert_same_reports(reports, decide_each(src, -2, 2, threshold))
        assert {r.ceiling.status for r in reports} == {r.floor.status for r in reports} == {status}


@pytest.mark.parametrize(
    "text", ["t^40 - 3t^39 + 2", "t^{41/2} - t^20 + t^{1/2}"]
)
def test_sparse_high_exponents_match_the_certified_scan(text):
    # the offsets hold one power of q per nonzero term, not one per degree
    f = parse_puiseux(text)
    src = fit.SequenceSource(
        "floor f + [q = 25]", PrimePowerDomain(frozenset(), "prime_powers", 30),
        lambda pt: floor_eval(f, pt.q) + (pt.q == 25),
    )
    for mode, puiseux_mode in product(("ceiling", "floor"), (False, True)):
        assert_verify_matches_certified_scan(src, f, mode, puiseux_mode, 1)


def test_a_top_term_past_the_bit_bound_is_refused(monkeypatch):
    # prime powers to 50 end at q = 49, of 6 bits: t^e is admitted while 6e <= the bound
    src = monoid.zlift_source(monoid.projective_space(1), PrimePowerDomain(frozenset(), "prime_powers", 50))
    monkeypatch.setattr(fit, "MAX_TERM_BITS", 60)
    for text in ("t^10", "t^{19/2} + 1"):
        assert fit.verify_floor(parse_puiseux(text), src, 1).status == BOUND_VIOLATED
    for text in ("t^11", "t^{21/2}"):
        with pytest.raises(ValueError, match=r"at q = 49 exceeds the limit of 60 bits"):
            fit.verify_ceiling(parse_puiseux(text), src, 1, puiseux_mode=True)


@pytest.mark.parametrize(
    "text, term, denominator",
    [
        ("t^{1/3}", "t^{1/3}", 3),
        ("t + t^{4/3}", "t^{4/3}", 3),
        ("t^{1/1000000}", "t^{1/1000000}", 1000000),
        ("(1/2)t^{1/3}", "t^{1/3}", 3),  # f(1) = 1/2
        ("t^{100000000/3} + t^{1/2}", "t^{100000000/3}", 3),  # past MAX_TERM_BITS
    ],
)
def test_exponent_denominators_past_2_are_refused(text, term, denominator):
    # fit decides exponents in (1/2)Z only; the refusal comes before every
    # other check, f(1) in puiseux mode included
    src = monoid.zlift_source(monoid.projective_space(1), PrimePowerDomain(frozenset(), "prime_powers", 50))
    message = rf"^candidate term {re.escape(term)} has exponent denominator {denominator}: "
    message += r"fit decides exponents in \(1/2\)Z only$"
    for verify, puiseux_mode in product((fit.verify_ceiling, fit.verify_floor), (False, True)):
        with pytest.raises(ValueError, match=message):
            verify(parse_puiseux(text), src, 1, puiseux_mode=puiseux_mode)


@st.composite
def sources_and_candidates(draw):
    """A source around a polynomial g with coefficients in (1/L)Z, L in 1..4,
    and the candidate g + m/L: near enough to the counts that exact witnesses,
    and puiseux-mode witnesses of a fractional f, occur."""
    den = draw(st.integers(1, 4))
    nums = draw(st.lists(st.integers(-3 * den, 3 * den), min_size=1, max_size=4))
    lift = draw(st.sampled_from(LIFTS))  # the candidate moves with the counts
    src = draw(integer_sources(coeffs=[Fraction(n, den) for n in nums], noise=1, lift=lift))
    k, e = draw(st.integers(-2, 2)), draw(st.integers(0, 1))
    m = k * den - sum(nums) % den + e  # f(1) = (sum(nums) + m)/L is an integer unless e = 1 < L
    terms = [(Fraction(n, den), k) for k, n in enumerate(nums)] + [(Fraction(m, den) + lift, 0)]
    return src, PuiseuxPoly(terms)


@given(
    sources_and_candidates(),
    st.sampled_from(["ceiling", "floor"]),
    st.booleans(),
    st.integers(0, 3),
    st.sampled_from([0, 2**64 + 7]),
)
def test_verify_matches_reference_scan(src_f, mode, puiseux_mode, threshold, shift):
    assert_verify_matches_certified_scan(*src_f, mode, puiseux_mode, threshold, shift)


def assert_verify_matches_certified_scan(src, f, mode, puiseux_mode, threshold, shift=0):
    if shift:  # counts past 2^64, and a candidate moved with them
        src = fit.SequenceSource(src.label, src.domain, lambda pt, fn=src.fn: fn(pt) + shift)
        f = f + PuiseuxPoly([(shift, 0)])
    verify = fit.verify_ceiling if mode == "ceiling" else fit.verify_floor
    got = verify(f, src, threshold, puiseux_mode=puiseux_mode)
    want = certified_scan(f, src, mode, threshold, puiseux_mode)
    assert got == want
    assert got.summary() == want.summary()


def test_scaled_offsets_leave_int64():
    # the counts 2^61 + q fit int64 with room to spare, but L * A_q reaches
    # 2^62 from L = 2 and wraps past 2^63 from L = 4
    src = fit.SequenceSource(
        "2^61 + q", PrimePowerDomain(frozenset(), "prime_powers", 30), lambda pt: 2**61 + pt.q
    )
    assert fit._offsets(src, [1], [[1]]).dtype == np.int64
    assert fit._offsets(src, [1], [[1]], 3).dtype == object
    # f(q) - A_q = (q - 2)/5: a ceiling met at q = 2 only, a floor that fails at q = 3
    close = parse_puiseux(f"(6/5)t + {2**61} - 2/5")
    for f, mode, puiseux_mode in product((parse_puiseux("(1/3)t"), close), ("ceiling", "floor"), (False, True)):
        verify = fit.verify_ceiling if mode == "ceiling" else fit.verify_floor
        assert verify(f, src, 1, puiseux_mode=puiseux_mode) == certified_scan(f, src, mode, 1, puiseux_mode)
    assert fit.verify_ceiling(close, src, 1).witnesses == (2,)
    assert fit.verify_floor(close, src, 1).violation.n == 3


@st.composite
def half_integer_sources_and_candidates(draw):
    """A source around g = (1/L)(a_0 + a_1 t^{1/2} + a_2 t + a_3 t^{3/2})
    with integer a_e of both signs, a_1 or a_3 nonzero and L in 1..4, on a
    prime-power domain (so that the squares p^2, p^4, where g is rational,
    occur), and the candidate g + m/L: near enough to the counts that exact
    witnesses, puiseux-mode witnesses and violations all occur.  Counts and
    candidate are lifted together by a drawn value of LIFTS."""
    den = draw(st.integers(1, 4))
    nums = draw(
        st.lists(st.integers(-3 * den, 3 * den), min_size=4, max_size=4).filter(lambda a: a[1] or a[3])
    )
    g = PuiseuxPoly([(Fraction(n, den), Fraction(k, 2)) for k, n in enumerate(nums)])
    kind = draw(st.sampled_from(["prime_powers", "primes_only"]))
    dom = PrimePowerDomain(draw(st.sets(st.sampled_from([2, 3, 5]))), kind, draw(st.integers(2, 300)))
    errors = draw(st.lists(st.integers(-1, 1), min_size=len(dom.points), max_size=len(dom.points)))
    lift = draw(st.sampled_from(LIFTS))
    counts = {pt.q: floor_eval(g, pt.q) + e + lift for pt, e in zip(dom.points, errors)}
    k, e = draw(st.integers(-2, 2)), draw(st.integers(0, 1))
    m = k * den - sum(nums) % den + e  # f(1) is an integer unless e = 1 < L
    f = g + PuiseuxPoly([(Fraction(m, den) + lift, 0)])
    return fit.SequenceSource("drawn", dom, lambda pt: counts[pt.q]), f


@given(
    half_integer_sources_and_candidates(),
    st.sampled_from(["ceiling", "floor"]),
    st.booleans(),
    st.integers(0, 3),
    st.sampled_from([0, 2**64 + 7]),
)
def test_half_integer_verify_matches_certified_scan(src_f, mode, puiseux_mode, threshold, shift):
    assert fit._compile(src_f[1])[0] == 2
    assert_verify_matches_certified_scan(*src_f, mode, puiseux_mode, threshold, shift)


@pytest.mark.parametrize(
    "text, even, odd, dtype",
    [
        (f"t + {2**30 - 1}t^{{1/2}}", [(2, 1)], [(2**30 - 1, 0)], np.int64),  # P(4)^2 4 = 2^62 - 2^33 + 4
        (f"t + {2**30}t^{{1/2}}", [(2, 1)], [(2**30, 0)], object),  # P(4)^2 4 = 2^62
        (f"t^{{1/2}} + {2**61 - 3}", [], [(1, 0)], np.int64),  # 2 A_q <= 2^62 - 2
        (f"t^{{1/2}} + {2**61 - 2}", [], [(1, 0)], object),  # 2 A_4 = 2^62
    ],
    ids=["root-under", "root-at", "count-under", "count-at"],
)
def test_half_integer_offsets_at_the_int64_bound(text, even, odd, dtype):
    # the counts floor(f(q)) at q = 2, 4 and one more at q = 3: the bound
    # fails at 3 (ceiling) or 2 (floor), and f(4) = A_4 is an exact witness
    f = parse_puiseux(text)
    src = fit.SequenceSource(
        "floor f + [q = 3]", PrimePowerDomain(frozenset(), "prime_powers", 4),
        lambda pt: floor_eval(f, pt.q) + (pt.q == 3),
    )
    rows = [[h for h, _ in even]]  # f = (R + P sqrt(q))/1, twice
    assert fit._offsets(src, [k for _, k in even], rows, 2, odd).dtype == dtype
    for mode, puiseux_mode in product(("ceiling", "floor"), (False, True)):
        assert_verify_matches_certified_scan(src, f, mode, puiseux_mode, 1)


@given(
    st.lists(st.integers(-9, 9), min_size=4, max_size=4).filter(lambda a: a[1] or a[3]),
    st.integers(1, 4),
    st.integers(1, 30000),
)
def test_interval_text_is_the_float_text(nums, divisor, q):
    # f = (a_0 + a_1 t^{1/2} + a_2 t + a_3 t^{3/2})/L: the interval overlaps
    # certified.bounds at 64 bits, is at most 2^-63/L wide, and below 2^53 its
    # ends print as the float text of the reference's ends, and as Fraction
    # rounds them
    f = PuiseuxPoly([(Fraction(n, divisor), Fraction(k, 2)) for k, n in enumerate(nums)])
    _, scale, terms, _ = fit._compile(f)  # scale: L
    lo, hi, den = fit._interval(terms, scale, q)
    ref_lo, ref_hi, ref_den = bounds(f, q, 64)
    assert lo * ref_den <= ref_hi * den and ref_lo * den <= hi * ref_den
    assert lo <= hi and (hi - lo) * scale * 2**63 <= den
    text = f"[{fit._decimal(lo, den)}, {fit._decimal(hi, den)}]"
    assert text == f"[{ref_lo / ref_den:.6f}, {ref_hi / ref_den:.6f}]"
    assert text == f"[{six_decimals(Fraction(ref_lo, ref_den))}, {six_decimals(Fraction(ref_hi, ref_den))}]"


@pytest.mark.parametrize("text, k", [("t^{2101/2}", 2101), ("t^{1/2}", 1), ("t^{3/2}", 3), ("t^{99/2}", 99)])
def test_violation_interval_is_as_tight_at_a_high_top_exponent(text, k):
    # both printed ends of f(2) = 2^(k/2) are its value rounded to six
    # decimals, next to isqrt(2^k 10^12), however high k: at k = 2101 the
    # per-term bounds of certified.bounds at 76 bits agree in 20 digits only
    f = parse_puiseux(text)
    src = schemes.an_source(3, PrimePowerDomain(frozenset(), "prime_powers", 50))
    (printed,) = re.fullmatch(r".* vs f\(n\)=(\[.*\])", fit.verify_floor(f, src).summary()).groups()
    lo, hi = (Fraction(end) for end in printed[1:-1].split(", "))
    micro = math.isqrt(2**k * 10**12)  # floor(2^(k/2) 10^6)
    assert micro <= lo * 10**6 <= hi * 10**6 <= micro + 1
    assert lo == hi


@pytest.mark.parametrize(
    "num, den, text",
    [
        (0, 7, "0.000000"),
        (-1, 10**9, "-0.000000"),  # rounds to 0 and keeps its sign
        (1, 2 * 10**6, "0.000000"),  # ties go to the even last digit
        (3, 2 * 10**6, "0.000002"),
        (-5, 2 * 10**6, "-0.000002"),
        (7 * 10**6 + 1, 10**6, "7.000001"),
        (10**400 + 1, 2, "5" + "0" * 399 + ".500000"),  # past the float range
        (2**60 + 1, 1, f"{2**60 + 1}.000000"),  # past 53 bits, exact
    ],
)
def test_decimal_rounds_in_integers(num, den, text):
    assert fit._decimal(num, den) == text == six_decimals(Fraction(num, den))


@pytest.mark.parametrize("a", [1, -1, 3, -5])
def test_roots_are_exact_next_to_large_squares(a):
    # near 2^62 a float sqrt of m^2 - 1 or m^2 + 1 rounds to m: the int64 path
    # must correct it in integers to what math.isqrt gives the object path
    m = math.isqrt(2**62 // (a * a)) - 1
    qs = [m * m - 1, m * m, m * m + 1, m * m + m, (m + 1) ** 2 - 1]
    want = []
    for q in qs:
        root = math.isqrt(a * a * q)
        both = 2 * root + (root * root != a * a * q)
        want.append(both if a > 0 else -both)
    for dtype in (np.int64, object):
        assert fit._roots(np.array(qs, dtype=dtype), [(a, 0)]).tolist() == want


@pytest.mark.parametrize("a", [1, -1, 3])
def test_roots_on_both_sides_of_2_52(a):
    # the int64 path corrects the float sqrt only from a square of 2^52 on:
    # every square here is P(q)^2 q = a^2 q within a few units of m^2, with
    # m^2 just below, at and just above 2^52
    want, qs = [], []
    for m in (2**26 - 1, 2**26, 2**26 + 1):
        for q in range((m * m - 2) // (a * a), (m * m + 3) // (a * a) + 1):
            root = math.isqrt(a * a * q)
            both = 2 * root + (root * root != a * a * q)
            qs.append(q)
            want.append(both if a > 0 else -both)
    assert min(a * a * q for q in qs) < 2**52 <= max(a * a * q for q in qs)
    for dtype in (np.int64, object):
        assert fit._roots(np.array(qs, dtype=dtype), [(a, 0)]).tolist() == want


@given(st.integers(0, 2**52 - 1), st.integers(1, 2**20))
def test_uncorrected_float_roots_below_2_52_are_exact(square, width):
    # squares of one sign below 2^52 skip the correction: a float sqrt floors to isqrt
    qs = np.arange(square, min(square + width, 2**52), dtype=np.int64)[:64]
    got = fit._roots(qs, [(1, 0)]).tolist()
    assert got == [2 * math.isqrt(q) + (math.isqrt(q) ** 2 != q) for q in qs.tolist()]


def spec_f13_src(limit=2000):
    # counts are 3 when 3 | q - 1 and 1 otherwise
    return monoid.zlift_source(monoid.spec_f1n(3), PrimePowerDomain(frozenset(), "prime_powers", limit))


def test_search_threshold_zero_keeps_every_constant_past_the_extreme():
    src = spec_f13_src()
    rep = fit.search_polynomial(src, 0, -5, 5, 0)
    assert rep.ceiling == tuple(PuiseuxPoly([(c, 0)]) for c in (3, 4, 5))
    assert rep.floor == tuple(PuiseuxPoly([(c, 0)]) for c in range(-5, 2))
    assert rep.ceiling_ambiguous and rep.floor_ambiguous
    assert rep == brute_search(src, 0, -5, 5, 0)
    # no points at all: nothing bounds c, so every candidate survives
    empty = fit.SequenceSource("empty", PrimePowerDomain(frozenset({2}), "prime_powers", 2), lambda pt: 0)
    assert empty.values() == []
    rep = fit.search_polynomial(empty, 1, -1, 1, 0)
    assert len(rep.ceiling) == len(rep.floor) == 9
    assert rep == brute_search(empty, 1, -1, 1, 0)


def test_search_box_beyond_the_extremes():
    src = spec_f13_src()
    above = fit.search_polynomial(src, 0, 4, 6, 0)  # every c > max count: no witnesses
    assert above.ceiling == tuple(PuiseuxPoly([(c, 0)]) for c in (4, 5, 6))
    assert above.floor == ()
    assert fit.search_polynomial(src, 0, 4, 6, 1).ceiling == ()
    below = fit.search_polynomial(src, 0, -6, 0, 0)  # every c < min count
    assert below.ceiling == ()
    assert below.floor == tuple(PuiseuxPoly([(c, 0)]) for c in range(-6, 1))
    assert fit.search_polynomial(src, 0, -6, 0, 1).floor == ()
    for lo, hi, threshold in ((4, 6, 0), (4, 6, 1), (-6, 0, 0), (-6, 0, 1)):
        assert fit.search_polynomial(src, 0, lo, hi, threshold) == brute_search(src, 0, lo, hi, threshold)


def test_reject_linear_every_c_violated_at_the_first_point():
    # #G_m(F_q) = q - 1: t + c with c < -1 exceeds no count anywhere as a
    # ceiling and fails at q = 2; t + c with c > -1 fails as a floor at q = 2
    src = monoid.zlift_source(monoid.multiplicative_group(), PrimePowerDomain(frozenset(), "prime_powers", 300))
    for c_lo, c_hi, mode in ((-9, -2, "ceiling"), (0, 7, "floor")):
        reports = fit.reject_linear_family(src, c_lo, c_hi, 3)
        assert [r.c for r in reports] == list(range(c_lo, c_hi + 1))
        for r in reports:
            v = getattr(r, mode)
            assert v.status == BOUND_VIOLATED and v.witnesses == ()
            assert (v.violation.n, v.violation.count, v.violation.candidate_value) == (2, 1, str(2 + r.c))
        assert_same_reports(reports, brute_reject(src, c_lo, c_hi, 3))


def test_search_beyond_int64_is_exact():
    # wrapped int64 offsets would read these counts as q + 1 and keep t + 1
    # as both ceiling and floor
    src = fit.SequenceSource(
        "2^64 + q + 1", PrimePowerDomain(frozenset(), "prime_powers", 30), lambda pt: 2**64 + pt.q + 1
    )
    rep = fit.search_polynomial(src, 1, -3, 3, 1)
    assert rep.ceiling == rep.floor == ()
    assert rep == brute_search(src, 1, -3, 3, 1)


@pytest.mark.parametrize("big, dtype", [(2**62 - 10, np.int64), (2**62 - 9, object)], ids=["under", "over"])
def test_search_at_the_int64_bound(big, dtype):
    # prime powers up to 10 end at q = 9, so the box [-1, 1] adds at most 9 in
    # degree 1: the offsets stay below 2^62 exactly when big + 9 does
    src = fit.SequenceSource(
        "q + 1 but one", PrimePowerDomain(frozenset(), "prime_powers", 10),
        lambda pt: big if pt.q == 7 else pt.q + 1,
    )
    assert fit._offset_dtype(src.bound, 9, 1, [1]) is dtype
    rep = fit.search_polynomial(src, 1, -1, 1, 3)
    assert rep.ceiling == ()
    assert rep.floor == (parse_puiseux("t + 1"),)
    assert rep == brute_search(src, 1, -1, 1, 3)
