"""Exact integer arithmetic shared by every other module.

Primality is decided by trial division and sieving (desk-scale bounds make
this exact and fast enough); all square/cube roots are computed on integers,
never through floating point.  Small explicit fields F_{p^m}, handled as
whole-field numpy arrays, are provided as brute-force oracles only.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

ORACLE_FIELD_BOUND = 30000


def isqrt(n: int) -> int:
    """Largest s with s*s <= n."""
    if n < 0:
        raise ValueError("isqrt of negative integer")
    return math.isqrt(n)


def iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n, by integer Newton iteration."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    if n.bit_length() <= k:  # n < 2**k means root is 1
        return 1
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def is_prime(n: int) -> bool:
    """Deterministic trial division up to isqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def is_prime_power(q: int) -> bool:
    """Whether q = p^m for a prime p and an m >= 1.  The root r of the
    largest k with r^k = q is itself no perfect power, so q is a prime power
    exactly when r is prime."""
    if q < 2:
        return False
    for k in range(q.bit_length() - 1, 0, -1):
        r = iroot(q, k)
        if r**k == q:
            return is_prime(r)
    return False


def sieve(limit: int) -> list[int]:
    """All primes <= limit."""
    if limit < 2:
        return []
    if limit >= sys.maxsize:
        raise ValueError(f"sieve limit {limit} is too large to index")
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return np.flatnonzero(np.frombuffer(flags, dtype=np.uint8)).tolist()


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| as (p, exponent) pairs, ascending."""
    n = abs(n)
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def check_excluded(entries) -> None:
    """Refuse an excluded set with an entry that is not prime."""
    for s in sorted(entries):
        if not is_prime(s):
            raise ValueError(f"excluded entry {s} is not prime")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion; p must be an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre needs an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


class DomainPoint(NamedTuple):
    q: int
    p: int
    m: int


@dataclass(frozen=True)
class PrimePowerDomain:
    """Finite index set for count sequences.

    kind 'prime_powers' holds {p^m <= limit : p prime not in excluded}, and
    'primes_only' the primes themselves.  `points` lists them strictly
    increasing in q with no duplicates, each with its p and m, and `qs`
    holds their q as one int64 array; both are computed once, when the
    domain is built, so callers share one enumeration by sharing the domain.
    """

    excluded: frozenset[int] = frozenset()
    kind: str = "prime_powers"
    limit: int = 10000
    points: tuple[DomainPoint, ...] = field(init=False, repr=False, compare=False)
    qs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("prime_powers", "primes_only"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.limit < 2:
            raise ValueError("domain limit must be >= 2")
        object.__setattr__(self, "excluded", frozenset(self.excluded))
        check_excluded(self.excluded)
        points = []
        for p in sieve(self.limit):
            if p in self.excluded:
                continue
            q, m = p, 1
            while q <= self.limit and (m == 1 or self.kind == "prime_powers"):
                points.append(DomainPoint(q, p, m))
                q *= p
                m += 1
        points.sort()
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "qs", np.array([pt.q for pt in points], dtype=np.int64))


# --- small explicit fields, used only as counting oracles ---------------


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by monic-led den, coefficients mod p (little-endian)."""
    num = [c % p for c in num]
    dn = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    while len(num) - 1 >= dn and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dn:
            break
        shift = len(num) - 1 - dn
        factor = num[-1] * inv_lead % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
    while num and num[-1] == 0:
        num.pop()
    return num


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of the monic polynomial x^m + sum coeffs[i] x^i over F_p."""
    m = len(coeffs)
    poly = list(coeffs) + [1]
    for a in range(p):  # root check kills every reducible of degree <= 3
        acc = 0
        for c in reversed(poly):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    if m <= 3:
        return True
    for d in range(2, m // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            div = list(lower) + [1]
            if not _poly_mod(poly, div, p):
                return False
    return True


class SmallField:
    """Explicit F_{p^m} whose elements are handled a whole field at a time.

    A set of N elements is an int64 array of shape (m, N): column j holds the
    base-p digits of element j, little-endian (row i is the coefficient of
    x^i).  `code(a) = sum a_i p^i` is an element's integer index, and
    `elements()` lists all q columns in code order, so the zero element is
    column 0 and the one element is column 1.  The modulus is the first
    irreducible monic polynomial in lexicographic order of its lower
    coefficients (constant term 0 skipped: x divides it), so field
    construction is deterministic.  Meant for exhaustive point counting.
    """

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if p**m > ORACLE_FIELD_BOUND:
            raise ValueError(f"field size {p**m} exceeds oracle bound {ORACLE_FIELD_BOUND}")
        self.p = p
        self.m = m
        self.order = p**m
        self.modulus = self._find_modulus()
        # row i: x^(m+i) reduced mod modulus, for folding products back below degree m
        red = []
        for i in range(m - 1):
            e = [0] * (m + i) + [1]
            r = _poly_mod(e, list(self.modulus) + [1], p)
            red.append(r + [0] * (m - len(r)))
        self._red = np.array(red, dtype=np.int64).reshape(m - 1, m)
        self._place = p ** np.arange(m, dtype=np.int64)

    def _find_modulus(self) -> tuple[int, ...]:
        if self.m == 1:
            return (0,)
        # c0 = 0 (a multiple of x) is skipped; c0 varies slowest, so the order holds
        for c0 in range(1, self.p):
            for rest in itertools.product(range(self.p), repeat=self.m - 1):
                if _is_irreducible((c0, *rest), self.p):
                    return (c0, *rest)
        raise RuntimeError(f"no irreducible modulus for p={self.p}, m={self.m}")

    def from_int(self, n: int) -> np.ndarray:
        """The image of the integer n, as an (m, 1) column."""
        col = np.zeros((self.m, 1), dtype=np.int64)
        col[0, 0] = n % self.p
        return col

    def elements(self) -> np.ndarray:
        """All q elements as an (m, q) array, in the order of their codes."""
        digits = np.arange(self.order, dtype=np.int64) // self._place[:, None]
        digits %= self.p
        return digits

    def code(self, a: np.ndarray) -> np.ndarray:
        """Integer index sum a_i p^i of each element of a (shape (m, ...))."""
        return (self._place @ a.reshape(self.m, -1)).reshape(a.shape[1:])

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two broadcastable element arrays: the m x m
        digit convolution, its digits of degree >= m folded back by the
        reduction rows.  Works one digit row at a time, so no temporary is
        larger than a row."""
        m, p = self.m, self.p
        shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
        low = np.zeros((m,) + shape, dtype=np.int64)  # digits of x^0 .. x^(m-1)
        high = np.zeros((m - 1,) + shape, dtype=np.int64)  # digits of x^m .. x^(2m-2)
        for i in range(m):
            for j in range(m):
                if i + j < m:
                    low[i + j] += a[i] * b[j]
                else:
                    high[i + j - m] += a[i] * b[j]
        for i in range(m - 1):
            for k in range(m):
                low[k] += self._red[i, k] * high[i]
        low %= p
        return low

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e elementwise by square-and-multiply; e < 0 needs nonzero a."""
        if e < 0:
            a = self.pow(a, self.order - 2)  # inverse via the group order
            e = -e
        acc = np.zeros_like(a)
        acc[0] = 1
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc


def build_field(p: int, m: int) -> SmallField:
    """F_{p^m} for oracle use, of any degree m >= 1 and size at most ORACLE_FIELD_BOUND."""
    return SmallField(p, m)
