"""Elliptic curves y^2 = x^3 + ax + b over the rationals: exact counts over
prime fields and their extensions, local zeta data, supersingular detection,
and the champion/trailing prime census.

The Frobenius trace a_p = p + 1 - #E(F_p) comes from one of three paths,
chosen by the curve and by p:
  - ab = 0 (complex multiplication, j = 0 or 1728): a closed form from
    Cornacchia's p = x^2 + y^2 or x^2 + 3y^2 and the quartic or sextic
    residue symbol of the coefficient, O(log p) integer operations;
  - otherwise, p <= BSGS_MIN_P: the quadratic-character sum
        #E(F_p) = p + 1 + sum_x chi(x^3 + ax + b),
    O(p) work on a numpy residue table;
  - otherwise, p > BSGS_MIN_P: a baby-step giant-step search for the group
    order in the Hasse interval, O(p^(1/4)) integer operations, accepted
    only when the order is certified unique (Mestre); otherwise the
    character sum.
The character sum and the baby-step giant-step search stay the references
that the tests compare the closed form against.
Counts over F_{p^m} follow from the trace recursion
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
            t = self._traces[p] = _trace(self.a, self.b, p)
        return t


def _trace(a: int, b: int, p: int) -> int:
    """a_p at a prime p that the caller has checked to be good."""
    if a * b == 0:
        t = _trace_cm(a, b, p)
    else:
        t = _trace_bsgs(a, b, p) if p > BSGS_MIN_P else None
        if t is None:
            t = _trace_char_sum(a, b, p)
    if t * t > 4 * p:  # Hasse bound; a violation means a counting bug
        raise RuntimeError(f"trace {t} violates the Hasse bound at p={p}")
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


def _trace_cm(a: int, b: int, p: int) -> int:
    """a_p of y^2 = x^3 + ax (b = 0) or y^2 = x^3 + b (a = 0) at a good p.

    Ireland-Rosen, ch. 18, Thms 4-5.  j = 1728: a_p = 0 for p = 3 mod 4;
    otherwise p = pi conj(pi) with pi = x + yi primary (x + y = 1 mod 4,
    y even) and a_p = 2 Re(conj(chi) pi), chi = (-a/pi)_4.  j = 0: a_p = 0
    for p = 2 mod 3; otherwise pi = u + vw (w^2 + w + 1 = 0) primary
    (u = 2, v = 0 mod 3) and a_p = -Tr(conj(chi) pi), chi = (4b/pi)_6.
    The symbol is read in F_p = Z[i]/pi or Z[w]/pi, where i or w maps to
    the root of unity r with pi(r) = 0.
    """
    if b == 0:
        if p % 4 == 3:
            return 0
        r = _root_of_unity(p, 4)
        x, y = _cornacchia(p, 1, r)
        if x % 2 == 0:
            x, y = y, x
        if (x + y) % 4 != 1:
            x, y = -x, -y
        i = r if (x + y * r) % p == 0 else p - r
        # chi = 1, i, -1, -i; then conj(chi) pi has real part x, y, -x, -y
        traces = {1: 2 * x, i: 2 * y, p - 1: -2 * x, p - i: -2 * y}
        s = pow(-a, (p - 1) // 4, p)
    else:
        if p % 3 == 2:
            return 0
        r = _root_of_unity(p, 3)
        x, y = _cornacchia(p, 3, 2 * r + 1)  # (2r + 1)^2 = -3
        u, v = x + y, 2 * y  # x + y sqrt(-3) = u + vw
        while v % 3:
            u, v = -v, u - v  # the associate w pi
        if u % 3 == 1:
            u, v = -u, -v
        w = r if (u + v * r) % p == 0 else p - 1 - r
        # chi = +-1, +-w, +-w^2; then conj(chi) pi = +-pi, +-w^2 pi, +-w pi,
        # whose traces are 2u - v, 2v - u, -u - v
        w2 = w * w % p
        traces = {1: v - 2 * u, w: u - 2 * v, w2: u + v}
        traces.update({p - z: -t for z, t in traces.items()})
        s = pow(4 * b, (p - 1) // 6, p)
    if s not in traces:
        raise RuntimeError(f"residue symbol {s} is no root of unity at p={p}")
    return traces[s]


def _root_of_unity(p: int, k: int) -> int:
    """A root of unity of order k (3 or 4) in F_p, p = 1 mod k: g^((p-1)/k)
    for the first g = 2, 3, ... that gives one."""
    for g in range(2, p):
        r = pow(g, (p - 1) // k, p)
        if r != 1 and (k == 3 or r * r % p == p - 1):
            return r
    raise RuntimeError(f"no root of unity of order {k} mod {p}")


def _cornacchia(p: int, d: int, r: int) -> tuple[int, int]:
    """(x, y) with x^2 + d y^2 = p, from a root r of -d mod p (Cohen, 1.5.2)."""
    prev, x = p, r
    while x * x > p:
        prev, x = x, prev % x
    y2, rem = divmod(p - x * x, d)
    y = math.isqrt(y2)
    if rem or y * y != y2:
        raise RuntimeError(f"Cornacchia found no x^2 + {d}y^2 = {p}")
    return x, y


# Crossover: above this prime the baby-step giant-step trace costs less than
# the character sum (both timed per prime; see CHANGES.md).  It must stay
# above 229, below which Mestre's uniqueness can fail.
BSGS_MIN_P = 3000
BSGS_POINTS = 32  # x = 0..31 are tried before falling back to the character sum


def _trace_bsgs(a: int, b: int, p: int) -> Optional[int]:
    """a_p by a certified baby-step giant-step order search, or None.

    For x = 0, 1, 2, ... with f = x^3 + ax + b nonzero mod p, the point
    (f x, f^2) lies on E_f: y^2 = x^3 + a f^2 x + b f^3, the quadratic twist
    of E by f, so no square root is needed.  E_f is E when f is a square and
    the nontrivial twist otherwise, hence a_p(E_f) = chi(f) a_p.  The true
    trace of E_f is always among the t with (p + 1 - t)P = O, so a t that is
    the only such one in the Hasse interval is certified.  For p > 229 some
    point of E or of its twist has a unique t (Mestre); if none of the tried
    points has, return None.
    """
    bound = math.isqrt(4 * p)
    for x in range(BSGS_POINTS):
        f = (x * x * x + a * x + b) % p
        if f == 0:
            continue
        ff = f * f % p
        t = _unique_trace(a * ff % p, (f * x % p, ff), p, bound)
        if t is not None:
            return t if pow(f, (p - 1) // 2, p) == 1 else -t
    return None


def _unique_trace(a: int, pt: tuple[int, int], p: int, bound: int) -> Optional[int]:
    """The t in [-bound, bound] with (p + 1 - t)pt = O, if exactly one.

    pt lies on y^2 = x^3 + ax + b (b is not needed).  Every t is i*s + j for
    one i and one |j| <= m, s = 2m + 1; then (p + 1 - i*s)pt = j*pt, found by
    the x-coordinate of |j|*pt among the baby steps and its sign by y.
    Returns None when two t qualify, or when the baby steps show an order
    <= 2m + 1, which no unique t can come from.
    """
    m = math.isqrt(bound) + 1
    baby: dict[int, tuple[int, int]] = {}  # x(j pt) -> (j, y(j pt)), j = 1..m
    q = pt
    for j in range(1, m + 1):
        if q is None or q[1] == 0 or q[0] in baby:
            return None
        baby[q[0]] = (j, q[1])
        last, q = q, _add(q, pt, a, p)
    step = _add(q, last, a, p)  # (2m + 1)pt
    if step is None:
        return None
    s = 2 * m + 1
    top = (bound + m) // s
    back = (step[0], p - step[1])
    g = _mul(p + 1 + top * s, pt, a, p)  # (p + 1 - i*s)pt at i = -top
    found = None
    for i in range(-top, top + 1):
        if g is None:
            t = i * s
        elif g[0] in baby:
            j, y = baby[g[0]]
            t = i * s + (j if y == g[1] else -j)
        else:
            t = None
        if t is not None and -bound <= t <= bound:
            if found is not None:
                return None
            found = t
        g = _add(g, back, a, p)
    return found


def _add(u, v, a: int, p: int):
    """u + v on y^2 = x^3 + ax + b over F_p, affine; None is the origin."""
    if u is None:
        return v
    if v is None:
        return u
    x1, y1 = u
    x2, y2 = v
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _mul(k: int, u, a: int, p: int):
    """k u for k >= 1, by left-to-right double-and-add."""
    out = u
    for bit in bin(k)[3:]:
        out = _add(out, out, a, p)
        if bit == "1":
            out = _add(out, u, a, p)
    return out


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
) -> CensusReport:
    """Classify every good prime p <= x_max outside the excluded set, in
    ascending order.  The asymptotic ratios compare the extremal counts to
    (2/(3*pi)) * x^(3/4) / log(x); they are reported in floating point for
    inspection only.
    """
    if x_max < 10:
        raise ValueError("x_max must be >= 10")
    s = frozenset(excluded) if excluded is not None else curve.bad_primes
    if not curve.bad_primes <= s:
        raise ValueError("excluded set must contain the curve's bad primes")
    # the sieve's primes outside s are good, so each fills the cache unchecked
    traces = curve._traces
    primes = [p for p in sieve(x_max) if p not in s]
    for p in primes:
        if p not in traces:
            traces[p] = _trace(curve.a, curve.b, p)
    rows = [(p, traces[p], classify_prime(curve, p)) for p in primes]

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
