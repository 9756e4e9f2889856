"""The four workloads: inputs made from a seed, the operations that call azw,
and the plain form of each result, which the checks and the digests read.

Operations call only public names of azw, and always through their module
(`schemes.count_pell`, not a name bound here), so that the traced run's
wrappers see every call.  Program objects (curves, conics, sources) are made
inside the first operation that needs them, so their cost is timed too.
Sizes are fixed per workload; the seed picks which discriminants, curves and
schemes are used, never how many, so a run's work barely depends on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from azw import arith, elliptic, fit, monoid, puiseux, schemes, zeta

from checks import binomial_envelope, curve_bad_primes, primes_upto

# oracle: criterion 4's discriminant range and (p, m) grid, and criterion 6's
# (p <= 31, m <= 3) grid on curves good at every p >= 5 of it
PELL_DISCS = [d for d in range(-50, 51) if d != 0 and d % 4 in (0, 1)]
PELL_GRID = [(p, m) for p in primes_upto(97) for m in (1, 2)] + [(p, 3) for p in primes_upto(13)]
ORACLE_DISCS = 4
CURVE_PRIMES = [p for p in primes_upto(31) if p >= 5]

# census: one j = 1728, one j = 0 and one generic curve
CENSUS_XMAX = 25000
CENSUS_SAMPLE = 6  # primes per census whose a_p is checked by brute force

# envelope: (c, e) of t + c t^(1/2) + e (ceiling) and t - c t^(1/2) + e (floor).
# c = 1 is violated within the first points; the Hasse pair (2, 1) and c = 3
# never are, so 6 of every 10 verdicts scan to the limit whatever the curve
ENVELOPE_CURVES = 6
ENVELOPE_LIMIT = 5000
ENVELOPE_THRESHOLD = 2
ENVELOPE_CANDIDATES = [(1, e) for e in (-1, 0, 1, 2)] + [(2, 1)] + [(3, e) for e in (-1, 0, 1, 2, 3)]

# search: monoid schemes by maximal rank (= search degree), A_n, G_n, and one
# reject_linear_family sweep.  Three small, six middle and two large searches
# put the median operation in the middle of the rank-2 ones.
SEARCH_RANKS = (2, 2, 2, 2, 2, 2, 3, 3)
SEARCH_BOX = (-3, 3)
SEARCH_LIMIT = 400
SEARCH_THRESHOLD = 3
REJECT_LIMIT = 5000
REJECT_C = (-20, 20)
TORSIONS = ((), (), (2,), (3,), (4,), (2, 2), (6,))


@dataclass
class Op:
    spec: dict  # plain description of the inputs, read by the checks
    run: Callable[[], Any]  # the timed call into azw
    plain: Callable[[Any], Any]  # raw result -> plain data (untimed)


def lazy(factory):
    box = []

    def get():
        if not box:
            box.append(factory())
        return box[0]

    return get


def frac(x) -> list[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def plain_poly(f) -> list:
    return [[frac(c), frac(e)] for c, e in f.terms]


def plain_product(z) -> list:
    return [[frac(r), frac(m)] for r, m in z.factors.items()]


def plain_coeffs(f, degree: int) -> list[int]:
    """Integer coefficients c_0..c_degree of an ordinary integer polynomial."""
    coeffs = {int(e): int(c) for c, e in f.terms}
    return [coeffs.get(k, 0) for k in range(degree + 1)]


def plain_verdict(v) -> list:
    violation = [v.violation.n, v.violation.count] if v.violation else None
    return [v.status, list(v.witnesses), violation]


def plain_counts(src) -> list:
    return [[pt.q, count] for pt, count in src.values()]


def random_curve(rng: random.Random, bound: int, avoid=()) -> tuple[int, int]:
    """Nonsingular (a, b) with a, b != 0 whose bad primes miss `avoid`."""
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if a and b and 4 * a**3 + 27 * b**2 and not curve_bad_primes(a, b) & set(avoid):
            return a, b


def nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([k for k in range(-bound, bound + 1) if k])


# --- oracle ---------------------------------------------------------------------


def oracle_ops(rng: random.Random) -> list[Op]:
    ops = []
    for d in rng.sample(PELL_DISCS, ORACLE_DISCS):
        conic = lazy(lambda d=d: schemes.PellConic(d))
        for p, m in PELL_GRID:
            ops.append(Op(
                {"kind": "pell", "d": d, "p": p, "m": m},
                lambda conic=conic, p=p, m=m: (
                    schemes.count_pell(conic(), p, m),
                    schemes.count_pell_oracle(conic(), p, m),
                ),
                list,
            ))
    a, b = random_curve(rng, 20, avoid=CURVE_PRIMES)
    curve = lazy(lambda: elliptic.EllipticCurve(a, b))
    for p in CURVE_PRIMES:
        for m in (1, 2, 3):
            ops.append(Op(
                {"kind": "curve", "a": a, "b": b, "p": p, "m": m},
                lambda p=p, m=m: (
                    elliptic.count_extension(curve(), p, m),
                    elliptic.count_extension_oracle(curve(), p, m),
                ),
                list,
            ))
    return ops


# --- census ---------------------------------------------------------------------


def plain_census(rep) -> dict:
    return {
        "rows": [list(row) for row in rep.rows],
        "champion": list(rep.champion),
        "trailing": list(rep.trailing),
        "supersingular": list(rep.supersingular),
        "excluded": sorted(rep.excluded),
    }


def census_ops(rng: random.Random) -> list[Op]:
    curves = [
        ("j1728", nonzero(rng, 50), 0),
        ("j0", 0, nonzero(rng, 50)),
        ("generic", *random_curve(rng, 50)),
    ]
    ops = []
    for family, a, b in curves:
        good = [p for p in primes_upto(CENSUS_XMAX) if p not in curve_bad_primes(a, b)]
        spec = {"family": family, "a": a, "b": b, "x_max": CENSUS_XMAX,
                "sample": sorted(rng.sample(good, CENSUS_SAMPLE))}
        ops.append(Op(
            spec,
            lambda a=a, b=b: elliptic.census(elliptic.EllipticCurve(a, b), CENSUS_XMAX),
            plain_census,
        ))
    return ops


# --- envelope -------------------------------------------------------------------


def envelope_candidate(mode: str, c: int, e: int):
    sign = 1 if mode == "ceiling" else -1
    return puiseux.PuiseuxPoly([(1, 1), (sign * c, Fraction(1, 2)), (e, 0)])


def envelope_ops(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(ENVELOPE_CURVES):
        a, b = random_curve(rng, 50)

        def make_source(a=a, b=b):
            curve = elliptic.EllipticCurve(a, b)
            domain = arith.PrimePowerDomain(curve.bad_primes, "prime_powers", ENVELOPE_LIMIT)
            return elliptic.count_source(curve, domain)

        src = lazy(make_source)
        for mode in ("ceiling", "floor"):
            for c, e in ENVELOPE_CANDIDATES:
                spec = {"a": a, "b": b, "mode": mode, "c": c, "e": e,
                        "limit": ENVELOPE_LIMIT, "threshold": ENVELOPE_THRESHOLD}

                def run(mode=mode, c=c, e=e, src=src):
                    verify = fit.verify_ceiling if mode == "ceiling" else fit.verify_floor
                    f = envelope_candidate(mode, c, e)
                    return verify(f, src(), ENVELOPE_THRESHOLD, puiseux_mode=True)

                def plain(v, src=src):
                    status, witnesses, violation = plain_verdict(v)
                    return {"status": status, "witnesses": witnesses,
                            "violation": violation, "counts": plain_counts(src())}

                ops.append(Op(spec, run, plain))
    return ops


# --- search ---------------------------------------------------------------------


def random_scheme(rng: random.Random, rank: int) -> list:
    """(rank, torsion) points: one of the given rank and up to two of lower
    rank, resampled until both envelopes have every coefficient in the box."""
    lo, hi = SEARCH_BOX
    while True:
        points = [(rank, rng.choice(TORSIONS))]
        points += [(rng.randint(0, rank - 1), rng.choice(TORSIONS)) for _ in range(rng.randint(0, 2))]
        envelopes = (binomial_envelope(points, math.prod), binomial_envelope(points, lambda t: 1))
        if all(lo <= c <= hi for env in envelopes for c in env.values()):
            return [[r, list(t)] for r, t in points]


def plain_search(report, src, degree: int) -> dict:
    return {
        "counts": plain_counts(src),
        "ceiling": [plain_coeffs(f, degree) for f in report.ceiling],
        "floor": [plain_coeffs(f, degree) for f in report.floor],
        "ceiling_ambiguous": report.ceiling_ambiguous,
        "floor_ambiguous": report.floor_ambiguous,
        "candidates_tested": report.candidates_tested,
    }


def run_monoid(points, label: str) -> dict:
    x = monoid.MonoidScheme(
        tuple(monoid.MonoidSchemePoint(r, tuple(t)) for r, t in points), label
    )
    domain = arith.PrimePowerDomain(frozenset(), "prime_powers", SEARCH_LIMIT)
    src = monoid.zlift_source(x, domain)
    report = fit.search_polynomial(src, x.max_rank, *SEARCH_BOX, SEARCH_THRESHOLD)
    ceiling, floor = monoid.ceiling_poly(x), monoid.floor_poly(x)
    zp = monoid.zeta_product(x)
    texts = {
        "ceiling_text": (ceiling, puiseux.parse_puiseux(puiseux.format_puiseux(ceiling)), plain_poly),
        "floor_text": (floor, puiseux.parse_puiseux(puiseux.format_puiseux(floor)), plain_poly),
        "zeta_text": (zp, zeta.parse_product(zeta.format_product(zp)), plain_product),
    }
    return {"report": report, "src": src, "degree": x.max_rank, "ceiling": ceiling, "floor": floor,
            "zeta": zp, "soule": zeta.soule_zeta(ceiling), "texts": texts}


def plain_monoid(raw: dict) -> dict:
    out = plain_search(raw["report"], raw["src"], raw["degree"])
    out["ceiling_poly"] = plain_poly(raw["ceiling"])
    out["floor_poly"] = plain_poly(raw["floor"])
    out["zeta_product"] = plain_product(raw["zeta"])
    out["soule_of_ceiling"] = plain_product(raw["soule"])
    for name, (obj, back, plain) in raw["texts"].items():
        out[name] = [plain(obj), plain(back)]  # before and after format + parse
    return out


def run_family(kind: str, n: int):
    domain = arith.PrimePowerDomain(frozenset(), "prime_powers", SEARCH_LIMIT)
    src = (schemes.an_source if kind == "an" else schemes.gn_source)(n, domain)
    return fit.search_polynomial(src, 1, *SEARCH_BOX, SEARCH_THRESHOLD), src


def run_reject(a: int, b: int):
    curve = elliptic.EllipticCurve(a, b)
    domain = arith.PrimePowerDomain(curve.bad_primes, "primes_only", REJECT_LIMIT)
    src = elliptic.count_source(curve, domain)
    return fit.reject_linear_family(src, *REJECT_C, SEARCH_THRESHOLD), src


def plain_reject(raw) -> dict:
    reports, src = raw
    rows = [{"c": r.c, "ceiling": plain_verdict(r.ceiling), "floor": plain_verdict(r.floor)}
            for r in reports]
    return {"counts": plain_counts(src), "rows": rows}


def search_ops(rng: random.Random) -> list[Op]:
    lo, hi = SEARCH_BOX
    box = {"lo": lo, "hi": hi, "limit": SEARCH_LIMIT, "threshold": SEARCH_THRESHOLD}
    ops = []
    for i, rank in enumerate(SEARCH_RANKS):
        points = random_scheme(rng, rank)
        ops.append(Op(
            {"kind": "monoid", "points": points, "degree": rank, **box},
            lambda points=points, i=i: run_monoid(points, f"scheme{i}"),
            plain_monoid,
        ))
    for kind, n in (("an", rng.randint(1, 3)), ("gn", rng.randint(2, 3))):
        ops.append(Op(
            {"kind": kind, "n": n, "degree": 1, **box},
            lambda kind=kind, n=n: run_family(kind, n),
            lambda raw: plain_search(*raw, 1),
        ))
    a, b = random_curve(rng, 50)
    ops.append(Op(
        {"kind": "reject", "a": a, "b": b, "limit": REJECT_LIMIT, "c_lo": REJECT_C[0],
         "c_hi": REJECT_C[1], "threshold": SEARCH_THRESHOLD},
        lambda: run_reject(a, b),
        plain_reject,
    ))
    return ops


WORKLOADS = {
    "oracle": oracle_ops,
    "census": census_ops,
    "envelope": envelope_ops,
    "search": search_ops,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
