"""The acceptance suite: eleven end-to-end checks, each with its pinned
parameters and runtime budget.  `azw repro` runs them and exits 0 only if
every one passes; tests/test_acceptance.py asserts each one's outcome.

A CriterionResult carries that outcome as data.  `defects` are real faults:
an exact comparison that disagrees, an envelope bound that is violated, a
shortfall that the diagnostic re-run does not heal, or a runtime budget
overrun.  `shortfalls` are envelopes that hold at the pinned scan limit but
have fewer equality witnesses there than the threshold, each with its
witnesses at the pinned limit and at the diagnostic limit.  A criterion
passes only when it has neither.

Criterion 4's envelope sweep is known to fall short of its witness threshold
for the eight discriminants whose only odd ramified prime is >= 19 (its cube
exceeds the scan limit 5000, leaving two witnesses).  The check runs at the
stated parameters anyway, so it still reports FAIL, and it records the 16
shortfalls together with a diagnostic re-run at a limit large enough to
cover the cubes.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import elliptic, fit, monoid, schemes
from .arith import PrimePowerDomain, build_field, sieve
from .puiseux import parse_puiseux
from .zeta import check_functional_equation, parse_product, soule_zeta, tensor


PELL_LIMIT = 5000  # criterion 4's pinned scan limit
PELL_DIAGNOSTIC_LIMIT = 110000  # covers p^3 for every odd p | D, |D| <= 50 (47^3 = 103823)


@dataclass(frozen=True)
class Shortfall:
    """A Pell envelope that holds at the pinned scan limit with too few
    equality witnesses, and its witnesses at the diagnostic limit."""

    disc: int
    excluded: tuple[int, ...]
    mode: str
    witnesses: tuple[int, ...]  # up to the pinned limit
    diagnostic_witnesses: tuple[int, ...]  # up to the diagnostic limit

    def describe(self) -> str:
        return (
            f"D={self.disc}, S={list(self.excluded)}: {self.mode} {fit.INSUFFICIENT_WITNESSES} "
            f"({len(self.witnesses)} witnesses <= {PELL_LIMIT})"
        )


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float
    defects: tuple[str, ...] = ()
    shortfalls: tuple[Shortfall, ...] = ()

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} {self.title}: {mark} ({self.seconds:.1f}s) {self.detail}"


def _result(number, title, t0, failures: list[str], detail: str = "", budget=None, shortfalls=()):
    elapsed = time.time() - t0
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f}s exceeded budget {budget}s")
    reasons = failures + [sf.describe() for sf in shortfalls]
    passed = not reasons
    text = detail if passed else "; ".join(reasons) + (f" | {detail}" if detail else "")
    return CriterionResult(number, title, passed, text, elapsed, tuple(failures), tuple(shortfalls))


# --- shared fixtures ---------------------------------------------------------

CEILING_E = parse_puiseux("t + 2t^{1/2} + 1")
FLOOR_E = parse_puiseux("t - 2t^{1/2} + 1")


def random_scheme(rng: random.Random, max_torsion_order: int = 60) -> monoid.MonoidScheme:
    """Random scheme with <= 6 points, ranks <= 4, divisibility chains of
    length <= 3 with entries <= 12, resampled until the total torsion order
    is small enough for equality witnesses to land below desk-scale limits."""
    while True:
        pts = []
        for _ in range(rng.randint(1, 6)):
            r = rng.randint(0, 4)
            chain: list[int] = []
            if rng.random() < 0.6:
                t = rng.randint(2, 12)
                chain.append(t)
                for _ in range(rng.randint(0, 2)):
                    step = rng.randint(1, max(1, 12 // t))
                    if t * step > 12:
                        break
                    t *= step
                    chain.append(t)
            pts.append(monoid.MonoidSchemePoint(r, tuple(chain)))
        x = monoid.MonoidScheme(tuple(pts), "random")
        if x.torsion_order <= max_torsion_order:
            return x


def _valid_pell_discs(bound: int = 50) -> list[int]:
    return [d for d in range(-bound, bound + 1) if d != 0 and d % 4 in (0, 1)]


# --- criteria ----------------------------------------------------------------


def criterion_01() -> CriterionResult:
    """Soule products of the elliptic envelopes and the tensor-square identities."""
    t0 = time.time()
    failures = []
    zc = soule_zeta(CEILING_E)
    zf = soule_zeta(FLOOR_E)
    if zc != parse_product("1 / (s (s-1/2)^2 (s-1))"):
        failures.append("soule of the ceiling envelope is wrong")
    if zf != parse_product("(s-1/2)^2 / (s (s-1))"):
        failures.append("soule of the floor envelope is wrong")
    half_c = parse_product("1 / (s (s-1/2))")
    half_f = parse_product("s / (s-1/2)")
    if tensor(half_c, half_c) != zc:
        failures.append("ceiling tensor square mismatch")
    if tensor(half_f, half_f) != zf:
        failures.append("floor tensor square mismatch")
    return _result(1, "corollary-products", t0, failures, "4 exact identities", budget=1.0)


def criterion_02() -> CriterionResult:
    """200 random monoid schemes: closed-form zeta equals soule(ceiling), and
    both envelopes verify at limit 5000, threshold 3, S in {{},{2}}."""
    t0 = time.time()
    failures = []
    rng = random.Random(0x5EED)
    checked = 0
    domains = [PrimePowerDomain(s, "prime_powers", 5000) for s in (frozenset(), frozenset({2}))]
    for i in range(200):
        x = random_scheme(rng)
        if monoid.zeta_product(x) != soule_zeta(monoid.ceiling_poly(x)):
            failures.append(f"zeta mismatch on scheme {i}")
            continue
        for dom in domains:
            src = monoid.zlift_source(x, dom)
            vc = fit.verify_ceiling(monoid.ceiling_poly(x), src, 3)
            vf = fit.verify_floor(monoid.floor_poly(x, dom.excluded), src, 3)
            if not vc.verified:
                failures.append(f"ceiling {vc.status} on scheme {i}, S={sorted(dom.excluded)}")
            if not vf.verified:
                failures.append(f"floor {vf.status} on scheme {i}, S={sorted(dom.excluded)}")
        checked += 1
    return _result(2, "monoid-closed-forms", t0, failures, f"{checked} schemes", budget=30.0)


AFFINE_GROUPS = (
    (0, ()), (1, ()), (2, ()),
    (0, (2,)), (0, (5,)), (0, (8,)), (0, (7,)),
    (1, (3,)), (1, (2, 4)), (2, (6,)), (2, (8,)), (0, (2, 8)), (0, (3, 6)), (2, (2, 2)),
)


def criterion_03() -> CriterionResult:
    """count_zlift for one-point schemes equals exhaustive enumeration of
    group homomorphisms Z^r x prod Z/t_j -> F_q^x, for every q <= 64."""
    t0 = time.time()
    failures = []
    qs = sorted((p**m, p, m) for p in sieve(64) for m in range(1, 7) if p**m <= 64)
    pairs = 0
    for r, tors in AFFINE_GROUPS:
        x = monoid.MonoidScheme((monoid.MonoidSchemePoint(r, tors),), f"Z^{r}x{tors}")
        for q, p, m in qs:
            fld = build_field(p, m)
            units = fld.elements()[:, 1:]  # column 0 is the zero element
            codes = fld.code(units)  # the one element has code 1
            images = [codes] * r + [codes[fld.code(fld.pow(units, t)) == 1] for t in tors]
            homs = sum(1 for _ in itertools.product(*images))
            if homs != monoid.count_zlift(x, q):
                failures.append(f"A=Z^{r}x{tors}, q={q}: {homs} != {monoid.count_zlift(x, q)}")
            pairs += 1
    return _result(3, "affine-hom-oracle", t0, failures, f"{pairs} (A, q) pairs exact")


def criterion_04() -> CriterionResult:
    """Pell counts against the exhaustive oracle, then envelope verification
    at the pinned parameters (limit 5000, threshold 3, four excluded sets)."""
    t0 = time.time()
    failures = []
    discs = _valid_pell_discs(50)
    count_checks = 0
    primes_97, primes_13 = sieve(97), sieve(13)
    for d in discs:
        conic = schemes.PellConic(d)
        for p in primes_97:
            for m in (1, 2):
                if schemes.count_pell(conic, p, m) != schemes.count_pell_oracle(conic, p, m):
                    failures.append(f"count mismatch D={d}, q={p}^{m}")
                count_checks += 1
        for p in primes_13:
            if schemes.count_pell(conic, p, 3) != schemes.count_pell_oracle(conic, p, 3):
                failures.append(f"count mismatch D={d}, q={p}^3")
            count_checks += 1

    domains = {}  # (excluded set, limit) -> the one domain that every disc shares

    def domain(s, limit):
        if (s, limit) not in domains:
            domains[s, limit] = PrimePowerDomain(s, "prime_powers", limit)
        return domains[s, limit]

    shortfalls = []
    healed = 0
    env_checks = 0
    for d in discs:
        conic = schemes.PellConic(d)
        bad = frozenset(p for p in primes_97 if d % p == 0)  # every prime of D, as |D| <= 50
        for s in (frozenset(), frozenset({2}), bad, bad | {2}):
            src = schemes.pell_source(conic, domain(s, PELL_LIMIT))
            ceiling, floor = schemes.envelopes_pell(conic, s)
            for mode, check, poly in (
                ("ceiling", fit.verify_ceiling, ceiling),
                ("floor", fit.verify_floor, floor),
            ):
                v = check(poly, src, 3)
                env_checks += 1
                if v.status == fit.INSUFFICIENT_WITNESSES:
                    # diagnostic: the same pair at a limit covering p^3 for every odd p | D
                    diag = check(poly, schemes.pell_source(conic, domain(s, PELL_DIAGNOSTIC_LIMIT)), 3)
                    if diag.verified:
                        healed += 1
                    else:
                        failures.append(f"unhealed shortfall: {diag.summary()}")
                    shortfalls.append(
                        Shortfall(d, tuple(sorted(s)), mode, v.witnesses, diag.witnesses)
                    )
                elif not v.verified:
                    failures.append(v.summary())
    detail = (
        f"{count_checks} oracle comparisons exact; {env_checks} envelope checks; "
        f"{len(shortfalls)} shortfalls at the pinned limit, "
        f"{healed} of them verified at limit {PELL_DIAGNOSTIC_LIMIT} "
        f"(witnesses for a 2t ceiling are powers of the odd ramified primes, and 19^3 > {PELL_LIMIT})"
    )
    return _result(4, "pell-theorem", t0, failures, detail, budget=60.0, shortfalls=shortfalls)


def criterion_05() -> CriterionResult:
    """Punctured-line and punctured-torus counts against field enumeration for
    all p^m <= 2048, n <= 12; envelopes verified for representative S."""
    t0 = time.time()
    failures = []
    qs = [(p, m) for p in sieve(2048) for m in range(1, 12) if p**m <= 2048]
    for p, m in qs:
        for n in range(1, 13):
            if schemes.count_an(n, p, m) != schemes.count_an_oracle(n, p, m):
                failures.append(f"An mismatch n={n}, q={p}^{m}")
        hits = schemes.unit_power_census(p, m, 11)
        q = p**m
        for n in range(2, 13):
            if schemes.count_gn(n, p, m) != (q - 1) - hits[n - 1]:
                failures.append(f"Gn mismatch n={n}, q={p}^{m}")
    for s in (frozenset(), frozenset({2})):
        dom = PrimePowerDomain(s, "prime_powers", 5000)
        for n in (1, 2, 3, 5, 8, 12):
            ceiling, floor = schemes.envelopes_an(n, s)
            src = schemes.an_source(n, dom)
            if not fit.verify_ceiling(ceiling, src, 3).verified:
                failures.append(f"An ceiling unverified n={n}, S={sorted(s)}")
            if not fit.verify_floor(floor, src, 3).verified:
                failures.append(f"An floor unverified n={n}, S={sorted(s)}")
        for n in (2, 3, 5, 8, 12):
            ceiling, floor = schemes.envelopes_gn(n, s)
            src = schemes.gn_source(n, dom)
            if not fit.verify_ceiling(ceiling, src, 3).verified:
                failures.append(f"Gn ceiling unverified n={n}, S={sorted(s)}")
            if not fit.verify_floor(floor, src, 3).verified:
                failures.append(f"Gn floor unverified n={n}, S={sorted(s)}")
    return _result(5, "punctured-families", t0, failures, f"{len(qs)} prime powers, n <= 12")


def criterion_06() -> CriterionResult:
    """Trace recursion equals exhaustive F_{p^m} counting for the fixtures."""
    t0 = time.time()
    failures = []
    checks = 0
    for curve in elliptic.FIXTURE_CURVES:
        primes = [p for p in sieve(31) if p not in curve.bad_primes]
        table = elliptic.TraceTable.of(curve, primes)  # every a_p in one batch
        for p in primes:
            for m in (1, 2, 3):
                if elliptic.count_extension(table, p, m) != elliptic.count_extension_oracle(curve, p, m):
                    failures.append(f"{curve.label}, q={p}^{m}")
                checks += 1
    return _result(6, "trace-recursion", t0, failures, f"{checks} exhaustive comparisons")


def criterion_07() -> CriterionResult:
    """Supersingular equivalences for every good p <= 500 of the CM fixtures:
    max/min identities (k <= 2), F_{p^2}-maximality, local zeta shape; and
    failure of F_{p^2}-maximality at every ordinary prime."""
    t0 = time.time()
    failures = []
    ss_seen = 0
    for curve in elliptic.CM_FIXTURES:
        primes = [p for p in sieve(500) if p not in curve.bad_primes]
        table = elliptic.TraceTable.of(curve, primes)  # every a_p in one batch
        for p in primes:
            maximal = elliptic.count_extension(table, p, 2) == p * p + 2 * p + 1
            if elliptic.is_supersingular(table, p):
                ss_seen += 1
                if not elliptic.maximal_minimal_check(table, p, 2).all_hold:
                    failures.append(f"{curve.label}: max/min fails at {p}")
                if not maximal:
                    failures.append(f"{curve.label}: not F_p2-maximal at supersingular {p}")
                if elliptic.local_zeta(table, p).numerator != (1, 0, p):
                    failures.append(f"{curve.label}: local zeta not 1+pT^2 at {p}")
            elif maximal:
                failures.append(f"{curve.label}: ordinary {p} is F_p2-maximal")
    return _result(7, "supersingular-equivalences", t0, failures, f"{ss_seen} supersingular primes checked")


def criterion_08() -> CriterionResult:
    """Puiseux envelopes of two fixture curves verify empirically: ceiling to
    10^4 with >= 2 witnesses, floor to 3*10^4 with >= 1; values at 1 are 4, 0."""
    t0 = time.time()
    failures = []
    v1, i1 = CEILING_E.value_at_one()
    v0, i0 = FLOOR_E.value_at_one()
    if (v1, i1) != (Fraction(4), True):
        failures.append(f"ceiling value at 1 is {v1}")
    if (v0, i0) != (Fraction(0), True):
        failures.append(f"floor value at 1 is {v0}")
    wits = []
    for curve in (elliptic.FIXTURE_CURVES[0], elliptic.FIXTURE_CURVES[2]):
        dom_c = PrimePowerDomain(curve.bad_primes, "prime_powers", 10**4)
        dom_f = PrimePowerDomain(curve.bad_primes, "prime_powers", 3 * 10**4)
        vc = fit.verify_ceiling(CEILING_E, elliptic.count_source(curve, dom_c), 2, puiseux_mode=True)
        vf = fit.verify_floor(FLOOR_E, elliptic.count_source(curve, dom_f), 1, puiseux_mode=True)
        if not vc.verified:
            failures.append(f"{curve.label}: ceiling {vc.status}")
        if not vf.verified:
            failures.append(f"{curve.label}: floor {vf.status}")
        wits.append((curve.label, len(vc.witnesses), len(vf.witnesses)))
    return _result(8, "elliptic-puiseux-envelopes", t0, failures, f"witnesses {wits}", budget=60.0)


def criterion_09() -> CriterionResult:
    """No linear envelope for y^2 = x^3 - x over the primes to 10^5: every
    ceiling candidate t+c, c in [0,20], is violated outright; every floor
    candidate t+c, c in [-20,2], is violated or witness-free."""
    t0 = time.time()
    failures = []
    curve = elliptic.FIXTURE_CURVES[0]
    dom = PrimePowerDomain(curve.bad_primes, "primes_only", 10**5)
    reports = fit.reject_linear_family(elliptic.count_source(curve, dom), -20, 20, 3)
    by_c = {r.c: r for r in reports}
    for c in range(0, 21):
        if by_c[c].ceiling.status != fit.BOUND_VIOLATED:
            failures.append(f"ceiling t+{c}: {by_c[c].ceiling.status}")
    for c in range(-20, 3):
        if by_c[c].floor.status not in (fit.BOUND_VIOLATED, fit.INSUFFICIENT_WITNESSES):
            failures.append(f"floor t+{c}: {by_c[c].floor.status}")
    sample = by_c[0].ceiling.violation
    return _result(
        9, "no-linear-envelope", t0, failures,
        f"44 candidates rejected; e.g. t+0 violated at p={sample.n if sample else '?'}",
        budget=120.0,
    )


def criterion_10() -> CriterionResult:
    """Champion/trailing census of the CM fixture to 10^5: both extremal
    counts within a factor 2 of (2/(3*pi)) x^(3/4)/log x, and supersingular
    primes occur."""
    t0 = time.time()
    failures = []
    rep = elliptic.census(elliptic.FIXTURE_CURVES[0], 10**5)
    for name, ratio in (("plus", rep.ratio_plus), ("minus", rep.ratio_minus)):
        if not 0.5 <= ratio <= 2.0:
            failures.append(f"ratio_{name} {ratio:.3f} outside [0.5, 2.0]")
    if len(rep.supersingular) == 0:
        failures.append("no supersingular primes found")
    detail = (
        f"champion {len(rep.champion)}, trailing {len(rep.trailing)}, "
        f"supersingular {len(rep.supersingular)}, main term {rep.main_term:.1f}, "
        f"ratios {rep.ratio_plus:.3f}/{rep.ratio_minus:.3f}"
    )
    return _result(10, "extremal-prime-census", t0, failures, detail, budget=300.0)


def criterion_11() -> CriterionResult:
    """Functional equation: the projective-space products are symmetric about
    n with sign (-1)^(n+1); the elliptic floor product is symmetric about 1
    with sign +1."""
    t0 = time.time()
    failures = []
    for n in range(0, 6):
        res = check_functional_equation(monoid.zeta_product(monoid.projective_space(n)), n)
        if not res.symmetric or res.sign != (-1) ** (n + 1):
            failures.append(f"P^{n}: symmetric={res.symmetric}, sign={res.sign}")
    res = check_functional_equation(soule_zeta(FLOOR_E), 1)
    if not (res.symmetric and res.sign == 1):
        failures.append(f"floor product: symmetric={res.symmetric}, sign={res.sign}")
    return _result(11, "functional-equation", t0, failures, "P^0..P^5 and the floor product")


ALL: tuple[Callable[[], CriterionResult], ...] = (
    criterion_01, criterion_02, criterion_03, criterion_04, criterion_05,
    criterion_06, criterion_07, criterion_08, criterion_09, criterion_10,
    criterion_11,
)


def run_all(numbers: Optional[list[int]] = None, stream=None) -> list[CriterionResult]:
    results = []
    for fn in ALL:
        num = int(fn.__name__.rsplit("_", 1)[1])
        if numbers and num not in numbers:
            continue
        res = fn()
        results.append(res)
        if stream is not None:
            print(res.line(), file=stream, flush=True)
    return results
