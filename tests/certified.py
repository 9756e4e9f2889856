"""The certified floor and ceiling of a Puiseux polynomial at an integer q,
the tests' reference for fit's integer decisions.

bounds(f, q, b) brackets f(q) between two integers over one denominator,
from f's integer form (fit._compile) and one integer root of q.  If both ends
round alike, that is the answer; a rational f(q) whose bounds straddle an
integer is found exactly by a radical decomposition of q (rational_value); an
irrational f(q) lies apart from every integer, so doubling b separates it
after finitely many steps.  No floating point is used.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from azw.arith import factorize, iroot
from azw.fit import _compile

MAX_BITS = 1 << 16  # unreachable: past 512 bits f(q) is known to be irrational


def bounds(f, q: int, bits: int) -> tuple[int, int, int]:
    """Integers lo, hi, den with lo/den <= f(q) <= hi/den, from
    R = floor(q^(1/d) * 2^bits): each term A_n rho^n, rho = q^(1/d), lies
    between A_n (R/2^bits)^n and A_n ((R+1)/2^bits)^n.  lo == hi exactly when
    q is a perfect d-th power, which for d = 1 is every q."""
    d, den, terms, top = _compile(f)
    radicand = q << (d * bits)
    r = iroot(radicand, d)
    if r**d == radicand:  # rho = r / 2^bits exactly
        v = 0
        for a, n in terms:
            v += a * r**n << bits * (top - n)
        return v, v, den << bits * top
    lo = hi = 0
    for a, n in terms:
        if n % d == 0:
            v = a * q ** (n // d) << bits * top
            lo += v
            hi += v
            continue
        shift = bits * (top - n)
        below = a * r**n << shift
        above = a * (r + 1) ** n << shift
        if a > 0:
            lo += below
            hi += above
        else:
            lo += above
            hi += below
    return lo, hi, den << bits * top


def eval_exact(f, q: int) -> Fraction:
    """f(q) exactly; q must be a perfect d-th power, d f's exponent denominator."""
    if q < 1:
        raise ValueError("evaluation domain is q >= 1")
    lo, hi, den = bounds(f, q, 0)
    if lo != hi:
        raise ValueError(f"{q} is not a perfect {_compile(f)[0]}-th power")
    return Fraction(lo, den)


def rational_value(f, q: int) -> Fraction | None:
    """f(q) as a Fraction when it is rational, else None.

    Write q = w^g with w not a perfect power; each t^e contributes a rational
    multiple of w^(r/D) with 0 <= r/D < 1.  Those fractional powers of w are
    linearly independent over Q, so f(q) is rational exactly when every
    fractional residue class cancels.
    """
    if q == 1:
        return f.value_at_one()[0]
    fact = factorize(q)
    g = reduce(math.gcd, (e for _, e in fact))
    w = 1
    for p, e in fact:
        w *= p ** (e // g)
    buckets: dict[Fraction, Fraction] = {}
    for c, e in f.terms:
        beta = e * g  # exponent of w
        i, r = divmod(beta.numerator, beta.denominator)
        key = Fraction(r, beta.denominator)
        buckets[key] = buckets.get(key, Fraction(0)) + c * w**i
    if any(key and coeff for key, coeff in buckets.items()):
        return None
    return buckets.get(Fraction(0), Fraction(0))


def floor_eval(f, q: int) -> int:
    """The exact floor of f(q) for an integer q >= 1."""
    return _rounded(f, q, False)


def ceil_eval(f, q: int) -> int:
    """The exact ceiling of f(q) for an integer q >= 1."""
    return _rounded(f, q, True)


def _rounded(f, q: int, up: bool) -> int:
    if q < 1:
        raise ValueError("evaluation domain is q >= 1")
    bits = 0 if _compile(f)[0] == 1 else 64  # an ordinary f is exact at 0 bits
    while bits <= MAX_BITS:
        lo, hi, den = bounds(f, q, bits)
        if up:  # ceil(x) = -floor(-x)
            lo, hi = -hi, -lo
        low = lo // den
        if low == hi // den:
            return -low if up else low
        if bits == 512:
            exact = rational_value(f, q)
            if exact is not None:
                return math.ceil(exact) if up else math.floor(exact)
            # irrational: the bounds must separate it from every integer
        bits *= 2
    raise RuntimeError(f"interval refinement did not resolve at q={q}")
