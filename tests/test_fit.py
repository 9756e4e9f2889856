import pytest

from azw import elliptic, fit, monoid, schemes
from azw.arith import PrimePowerDomain
from azw.fit import (
    BOUND_VIOLATED,
    INSUFFICIENT_WITNESSES,
    NON_INTEGRAL_AT_ONE,
    VERIFIED,
)
from azw.puiseux import PuiseuxPoly, parse_puiseux

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


def test_reject_linear_family_rejects_naturals():
    src = monoid.f1_source(monoid.projective_space(1), 50)
    with pytest.raises(ValueError):
        fit.reject_linear_family(src, 0, 1)


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
    assert rep.ceiling == (PuiseuxPoly.constant(3),)
    assert rep.floor == (PuiseuxPoly.constant(1),)


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
    assert PuiseuxPoly.constant(3) in rep.ceiling
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
        assert f.eval_exact(pt.q) == count


def test_soundness_recheck():
    x = monoid.spec_f1n(4)
    src = monoid.zlift_source(x, PrimePowerDomain(frozenset({2}), "prime_powers", 1500))
    f = monoid.floor_poly(x, frozenset({2}))
    v = fit.verify_floor(f, src, 3)
    assert v.status == VERIFIED
    assert len(v.witnesses) >= v.witness_threshold
    witnesses = set(v.witnesses)
    for pt, count in src.values():
        assert f.ceil_eval(pt.q) <= count
        assert (f.ceil_eval(pt.q) == count) == (pt.q in witnesses)


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


def test_sequence_source_caches():
    calls = []
    dom = PrimePowerDomain(frozenset(), "prime_powers", 50)
    src = fit.SequenceSource("probe", dom, lambda pt: calls.append(pt.q) or pt.q)
    src.values()
    src.values()
    assert len(calls) == len(src.values())
