"""Elliptic curves y^2 = x^3 + ax + b over the rationals: exact counts over
prime fields and their extensions, local zeta data, supersingular detection,
and the champion/trailing prime census.

Counts over F_p come from the quadratic-character sum
    #E(F_p) = p + 1 + sum_x chi(x^3 + ax + b),
evaluated with a residue table (vectorized, so 10^5-scale sweeps stay fast);
counts over F_{p^m} follow from the trace recursion
    a_1 = a_p,  a_k = a_p*a_{k-1} - p*a_{k-2},  #E(F_{p^m}) = p^m + 1 - a_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from . import fit
from .arith import (
    PrimePowerDomain,
    build_field,
    factorize,
    is_prime,
    isqrt,
    sieve,
)
from .puiseux import PuiseuxPoly

CHAMPION = "champion"
TRAILING = "trailing"
SUPERSINGULAR = "supersingular"
OTHER = "other"


class EllipticCurve:
    """Short Weierstrass curve with integer coefficients and nonzero
    discriminant; counting is only offered away from the bad primes."""

    def __init__(self, a: int, b: int, label: str = ""):
        self.a = int(a)
        self.b = int(b)
        self.disc = -16 * (4 * self.a**3 + 27 * self.b**2)
        if self.disc == 0:
            raise ValueError(f"singular curve: a={a}, b={b}")
        self.bad_primes = frozenset({2, 3} | {p for p, _ in factorize(self.disc)})
        self.label = label or self._default_label()
        self._traces: dict[int, int] = {}

    def _default_label(self) -> str:
        out = "y^2=x^3"
        if self.a:
            coeff = {1: "+", -1: "-"}.get(self.a, f"{self.a:+d}")
            out += f"{coeff}x"
        if self.b:
            out += f"{self.b:+d}"
        return out

    def __repr__(self):
        return f"EllipticCurve({self.label})"

    def __eq__(self, other):
        return isinstance(other, EllipticCurve) and (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def check_good(self, p: int) -> None:
        if p in self.bad_primes or not is_prime(p):
            raise ValueError(f"p={p} is not a good prime for {self.label}")

    def trace(self, p: int) -> int:
        """Frobenius trace a_p = p + 1 - #E(F_p), cached per prime.  A cached
        p was checked good when it was computed, so only a miss is checked."""
        t = self._traces.get(p)
        if t is None:
            self.check_good(p)
            t = _trace_char_sum(self.a, self.b, p)
            if t * t > 4 * p:  # Hasse bound; a violation means a counting bug
                raise RuntimeError(f"trace {t} violates the Hasse bound at p={p}")
            self._traces[p] = t
        return t


def _trace_char_sum(a: int, b: int, p: int) -> int:
    # chi table over residues: 1 on nonzero squares, -1 otherwise, 0 at 0
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    half = x[1 : (p + 1) // 2]
    chi[(half * half) % p] = 1
    rhs = ((x * x % p) * x + (a % p) * x + (b % p)) % p
    return -int(chi[rhs].sum(dtype=np.int64))


def count_fp(curve: EllipticCurve, p: int) -> int:
    """#E(F_p) = p + 1 + sum_x chi(x^3 + ax + b)."""
    return p + 1 - curve.trace(p)


def trace_power(curve: EllipticCurve, p: int, m: int) -> int:
    """a_{p^m} from the two-term recursion; a_{p^0} = 2."""
    if m < 0:
        raise ValueError("m must be >= 0")
    ap = curve.trace(p)
    prev, cur = 2, ap
    for _ in range(m - 1):
        prev, cur = cur, ap * cur - p * prev
    return 2 if m == 0 else cur


def count_extension(curve: EllipticCurve, p: int, m: int) -> int:
    """#E(F_{p^m}) = p^m + 1 - a_{p^m}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return p**m + 1 - trace_power(curve, p, m)


def count_extension_oracle(curve: EllipticCurve, p: int, m: int) -> int:
    """Projective count by exhaustive enumeration over an explicit F_{p^m}:
    affine solutions of y^2 = x^3 + ax + b, plus the point at infinity."""
    curve.check_good(p)
    fld = build_field(p, m)
    z = fld.elements()
    zz = fld.mul(z, z)
    squares = np.bincount(fld.code(zz), minlength=fld.order)
    rhs = fld.mul(zz, z)  # x^3 + ax + b, in place: a is a scalar of F_p
    rhs += curve.a % p * z
    rhs += fld.from_int(curve.b)
    rhs %= p
    return 1 + int(squares[fld.code(rhs)].sum())


def is_supersingular(curve: EllipticCurve, p: int) -> bool:
    """a_p = 0, i.e. #E(F_p) = p + 1 (good p >= 5 only)."""
    return curve.trace(p) == 0


@dataclass(frozen=True)
class LocalZeta:
    """Rational local zeta data: (1 - a_p T + p T^2) / ((1 - T)(1 - pT))."""

    p: int
    trace: int

    @property
    def numerator(self) -> tuple[int, int, int]:
        return (1, -self.trace, self.p)

    @property
    def supersingular(self) -> bool:
        return self.trace == 0


def local_zeta(curve: EllipticCurve, p: int) -> LocalZeta:
    return LocalZeta(p, curve.trace(p))


def classify_prime(curve: EllipticCurve, p: int) -> str:
    """champion: count hits the integer Hasse ceiling p+1+floor(2*sqrt(p));
    trailing: count hits the integer floor p+1-floor(2*sqrt(p)); the two
    cannot meet supersingular for p >= 5 since floor(2*sqrt(p)) >= 4."""
    ap = curve.trace(p)
    bound = isqrt(4 * p)
    if ap == 0:
        return SUPERSINGULAR
    if ap == -bound:
        return CHAMPION
    if ap == bound:
        return TRAILING
    return OTHER


@dataclass(frozen=True)
class CensusReport:
    curve_label: str
    x_max: int
    excluded: frozenset[int]
    rows: tuple[tuple[int, int, str], ...]  # (p, a_p, class), ascending p
    champion: tuple[int, ...]
    trailing: tuple[int, ...]
    supersingular: tuple[int, ...]
    main_term: float
    ratio_plus: float
    ratio_minus: float

    def counts(self) -> dict[str, int]:
        return {
            "champion": len(self.champion),
            "trailing": len(self.trailing),
            "supersingular": len(self.supersingular),
        }


def census(
    curve: EllipticCurve,
    x_max: int,
    excluded: Optional[Iterable[int]] = None,
    threads: int = 1,
) -> CensusReport:
    """Classify every good prime p <= x_max outside the excluded set.

    The prime range is processed in fixed blocks merged in ascending order,
    so the report is identical for any thread count.  The asymptotic ratios
    compare the extremal counts to (2/(3*pi)) * x^(3/4) / log(x); they are
    reported in floating point for inspection only.
    """
    if x_max < 10:
        raise ValueError("x_max must be >= 10")
    s = frozenset(excluded) if excluded is not None else curve.bad_primes
    if not curve.bad_primes <= s:
        raise ValueError("excluded set must contain the curve's bad primes")
    primes = [p for p in sieve(x_max) if p not in s]

    def block(ps):
        return [(p, curve.trace(p), classify_prime(curve, p)) for p in ps]

    if threads > 1 and len(primes) > 256:
        from concurrent.futures import ThreadPoolExecutor

        chunks = [primes[i : i + 256] for i in range(0, len(primes), 256)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = [row for part in pool.map(block, chunks) for row in part]
    else:
        rows = block(primes)

    champ = tuple(p for p, _, c in rows if c == CHAMPION)
    trail = tuple(p for p, _, c in rows if c == TRAILING)
    ss = tuple(p for p, _, c in rows if c == SUPERSINGULAR)
    main = (2 / (3 * math.pi)) * x_max**0.75 / math.log(x_max)
    return CensusReport(
        curve_label=curve.label,
        x_max=x_max,
        excluded=s,
        rows=tuple(rows),
        champion=champ,
        trailing=trail,
        supersingular=ss,
        main_term=main,
        ratio_plus=len(champ) / main,
        ratio_minus=len(trail) / main,
    )


@dataclass(frozen=True)
class MaxMinCheck:
    m: int
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class MaxMinReport:
    p: int
    k_max: int
    checks: tuple[MaxMinCheck, ...]
    first_failure: Optional[MaxMinCheck]

    @property
    def all_hold(self) -> bool:
        return self.first_failure is None


def maximal_minimal_check(curve: EllipticCurve, p: int, k_max: int) -> MaxMinReport:
    """For a supersingular p, verify that F_{p^(4k-2)} attains the upper
    Hasse-Weil bound and F_{p^(4k)} the lower one, for k = 1..k_max."""
    if not is_supersingular(curve, p):
        raise ValueError(f"p={p} is not supersingular for {curve.label}")
    checks = []
    for k in range(1, k_max + 1):
        m = 4 * k - 2
        checks.append(MaxMinCheck(m, p**m + 2 * p ** (2 * k - 1) + 1, count_extension(curve, p, m)))
        m = 4 * k
        checks.append(MaxMinCheck(m, p**m - 2 * p ** (2 * k) + 1, count_extension(curve, p, m)))
    first_bad = next((c for c in checks if not c.ok), None)
    return MaxMinReport(p, k_max, tuple(checks), first_bad)


@dataclass(frozen=True)
class HasseWeilBounds:
    q: int
    genus: int
    integer_lower: int
    integer_upper: int
    floor_candidate: PuiseuxPoly  # t - 2g t^(1/2) + 1, the real lower bound
    ceiling_candidate: PuiseuxPoly  # t + 2g t^(1/2) + 1, the real upper bound


def hasse_weil_bounds(q: int, genus: int) -> HasseWeilBounds:
    """Attainable integer envelope q + 1 -+ floor(2g sqrt(q)) (counts are
    integers inside the real interval q + 1 -+ 2g sqrt(q)), together with
    the Puiseux candidates t -+ 2g t^(1/2) + 1."""
    fact = factorize(q)
    if len(fact) != 1 or q < 2:
        raise ValueError(f"{q} is not a prime power")
    if genus < 0:
        raise ValueError("genus must be >= 0")
    g4q = 4 * genus * genus * q
    upper = q + isqrt(g4q) + 1
    lower = q - isqrt(g4q) + 1
    ceiling = PuiseuxPoly([(1, 1), (Fraction(2 * genus), Fraction(1, 2)), (1, 0)])
    floor = PuiseuxPoly([(1, 1), (Fraction(-2 * genus), Fraction(1, 2)), (1, 0)])
    return HasseWeilBounds(q, genus, lower, upper, floor, ceiling)


def count_source(
    curve: EllipticCurve, domain: PrimePowerDomain
) -> fit.SequenceSource:
    """(#E(F_q))_q; the domain's excluded set must cover the bad primes."""
    if domain.kind == "naturals_from_2":
        raise ValueError("curve counts live on prime-based domains")
    if not curve.bad_primes <= domain.excluded:
        raise ValueError("domain must exclude the curve's bad primes")
    return fit.SequenceSource(
        label=f"#E(F_q), E: {curve.label}",
        domain=domain,
        fn=lambda pt: count_extension(curve, pt.p, pt.m),
    )


FIXTURE_CURVES = (
    EllipticCurve(-1, 0, "y^2=x^3-x"),
    EllipticCurve(1, 0, "y^2=x^3+x"),
    EllipticCurve(0, 1, "y^2=x^3+1"),
    EllipticCurve(0, -2, "y^2=x^3-2"),
    EllipticCurve(-1, 1, "y^2=x^3-x+1"),
)

CM_FIXTURES = FIXTURE_CURVES[:4]  # a=0 or b=0: complex multiplication
