"""Closed-form point counts and envelopes for the explicit affine families:
punctured lines A^1 minus {0..n-1}, punctured tori G_m minus mu_{n-1}, and
Pell conics of discriminant D, each backed by a brute-force field oracle.
Each public count_* checks p and m once; the sources call the unchecked
kernels, since the points of a validated domain have only prime bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fit
from .arith import (
    ORACLE_FIELD_BOUND,
    PrimePowerDomain,
    build_field,
    is_prime,
    isqrt,
)
from .puiseux import PuiseuxPoly


def _check_prime_power(p: int, m: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("m must be >= 1")


def _check_n(n: int, least: int) -> None:
    if n < least:
        raise ValueError(f"n must be >= {least}")


def _smallest_prime_not_in(excluded: frozenset[int]) -> int:
    p = 2
    while p in excluded:
        p += 1
        while not is_prime(p):
            p += 1
    return p


# --- punctured affine line A^1 minus {0,...,n-1} -----------------------------


def _an(n: int, p: int, m: int) -> int:
    return p**m - min(p, n)


def count_an(n: int, p: int, m: int) -> int:
    """#(A^1 minus first n integer sections)(F_{p^m}) = p^m - min(p, n)."""
    _check_n(n, 1)
    _check_prime_power(p, m)
    return _an(n, p, m)


def count_an_oracle(n: int, p: int, m: int) -> int:
    """Enumerate F_{p^m} and drop the images of 0..n-1 (which collide mod p)."""
    fld = build_field(p, m)
    removed = np.arange(n) % p  # the code of from_int(i) is i mod p
    return int(np.count_nonzero(~np.isin(fld.code(fld.elements()), removed)))


def envelopes_an(n: int, excluded=frozenset()) -> tuple[PuiseuxPoly, PuiseuxPoly]:
    """(t - n1, t - n) with n1 = min(n, smallest non-excluded prime)."""
    _check_n(n, 1)
    s = frozenset(excluded)
    n1 = min(n, _smallest_prime_not_in(s))
    return PuiseuxPoly.linear(-n1), PuiseuxPoly.linear(-n)


# --- punctured torus G_m minus mu_{n-1} --------------------------------------


def _gn(n: int, p: int, m: int) -> int:
    q = p**m
    return (q - 1) - math.gcd(q - 1, n - 1)


def count_gn(n: int, p: int, m: int) -> int:
    """#(G_m minus (n-1)-th roots of unity)(F_q) = (q-1) - gcd(q-1, n-1)."""
    _check_n(n, 2)
    _check_prime_power(p, m)
    return _gn(n, p, m)


def count_gn_oracle(n: int, p: int, m: int) -> int:
    """Enumerate units of F_{p^m} and count those with z^(n-1) != 1."""
    fld = build_field(p, m)
    units = fld.elements()[:, 1:]  # column 0 is the zero element
    return int(np.count_nonzero(fld.code(fld.pow(units, n - 1)) != 1))  # code 1 is the one element


def unit_power_census(p: int, m: int, k_max: int) -> list[int]:
    """hits[k] = #{units z of F_{p^m} : z^k = 1} for k = 1..k_max, from one
    enumeration pass with incremental powers (batched form of the oracle)."""
    fld = build_field(p, m)
    units = fld.elements()[:, 1:]  # column 0 is the zero element
    hits = [0] * (k_max + 1)
    w = units
    for k in range(1, k_max + 1):
        hits[k] = int(np.count_nonzero(fld.code(w) == 1))
        w = fld.mul(w, units)
    return hits


def envelopes_gn(n: int, excluded=frozenset()) -> tuple[PuiseuxPoly, PuiseuxPoly]:
    """(t - n2, t - n); n2 = 3 when n is odd and 2 is excluded, else 2."""
    _check_n(n, 2)
    s = frozenset(excluded)
    n2 = 3 if (n % 2 == 1 and 2 in s) else 2
    return PuiseuxPoly.linear(-n2), PuiseuxPoly.linear(-n)


# --- Pell conics --------------------------------------------------------------


@dataclass(frozen=True)
class PellConic:
    """x^2 - (D/4)y^2 = 1 for D = 0 mod 4, x^2 + xy + ((1-D)/4)y^2 = 1 for
    D = 1 mod 4; other discriminants do not define an integral conic."""

    disc: int

    def __post_init__(self):
        if self.disc == 0:
            raise ValueError("discriminant must be nonzero")
        if self.disc % 4 not in (0, 1):
            raise ValueError(f"discriminant {self.disc} not 0 or 1 mod 4")

    @property
    def is_square(self) -> bool:
        return self.disc > 0 and isqrt(self.disc) ** 2 == self.disc


def _pell(d: int, p: int, m: int) -> int:
    q = p**m
    if p == 2:
        if d % 2 == 0:
            return q
        return q - (-1) ** ((d * d - 1) // 8 * m % 2)
    if d % p == 0:
        return 2 * q
    chi = 1 if pow(d, (p - 1) // 2, p) == 1 else -1  # Euler's criterion
    return q - chi**m


def count_pell(conic: PellConic, p: int, m: int) -> int:
    """Exact point count over F_{p^m}, by the quadratic-character case split."""
    _check_prime_power(p, m)
    return _pell(conic.disc, p, m)


def count_pell_oracle(conic: PellConic, p: int, m: int) -> int:
    """Exhaustive solution count of the defining equation over F_{p^m}.

    For p = 2 the left side is evaluated on the whole (x, y) grid, which is
    refused when its q^2 points pass ORACLE_FIELD_BOUND.  For odd p the
    x-side is folded through a square-occurrence table built by squaring
    every element once (completing the square for odd discriminants), which
    visits every solution without using quadratic characters.
    """
    if p == 2 and 4**m > ORACLE_FIELD_BOUND:
        raise ValueError(f"oracle grid of (2^{m})^2 points exceeds oracle bound {ORACLE_FIELD_BOUND}")
    d = conic.disc
    fld = build_field(p, m)
    z = fld.elements()
    if p == 2:  # here and below, constant factors lie in F_p and multiply as ints
        x, y = z[:, :, None], z[:, None, :]
        if d % 4 == 0:
            lhs = fld.mul(x, x) + -(d // 4) % p * fld.mul(y, y)
        else:
            lhs = fld.mul(x, x) + fld.mul(x, y) + (1 - d) // 4 % p * fld.mul(y, y)
        return int(np.count_nonzero(fld.code(lhs % p) == 1))
    # odd p: count x solutions of u^2 = target(y) through the square table
    zz = fld.mul(z, z)
    squares = np.bincount(fld.code(zz), minlength=fld.order)
    if d % 4 == 0:
        offset, coeff = 1, d // 4 % p  # x^2 = 1 + (D/4) y^2
    else:
        # 4*(x^2+xy+cy^2) = (2x+y)^2 - D y^2 and u = 2x+y is bijective in x
        offset, coeff = 4, d % p
    target = (fld.from_int(offset) + coeff * zz) % p
    return int(squares[fld.code(target)].sum())


def envelopes_pell(conic: PellConic, excluded=frozenset()) -> tuple[PuiseuxPoly, PuiseuxPoly]:
    """Ceiling by the four-case rule (2t / t+1 / t-1 / t), floor always t-1.

    D is not factored: with every excluded prime divided out of |D|, the
    cofactor r is 1 when every prime of D is excluded, and a power of 2 when
    every odd one is."""
    r = abs(conic.disc)
    for p in excluded:
        while p > 1 and r % p == 0:
            r //= p
    if r & (r - 1):
        ceiling = PuiseuxPoly.t_power(1, 2)  # 2t: a ramified odd prime stays in play
    elif not conic.is_square:
        ceiling = PuiseuxPoly.linear(1)
    elif r == 1:
        ceiling = PuiseuxPoly.linear(-1)
    else:  # even square discriminant with 2 still in play
        ceiling = PuiseuxPoly.t_power(1)
    return ceiling, PuiseuxPoly.linear(-1)


def qfiber_envelopes_pell(conic: PellConic) -> tuple[PuiseuxPoly, PuiseuxPoly]:
    """Generic-fiber envelopes: (t-1, t-1) for square D, else (t+1, t-1)."""
    if conic.is_square:
        return PuiseuxPoly.linear(-1), PuiseuxPoly.linear(-1)
    return PuiseuxPoly.linear(1), PuiseuxPoly.linear(-1)


# --- count sources -------------------------------------------------------------


def _source(label: str, domain: PrimePowerDomain, kernel, arg) -> fit.SequenceSource:
    """kernel(arg, p, m) at every point p^m of the domain, unchecked."""
    return fit.SequenceSource(label, domain, lambda pt: kernel(arg, pt.p, pt.m))


def an_source(n: int, domain: PrimePowerDomain) -> fit.SequenceSource:
    _check_n(n, 1)
    return _source(f"#A{n}(F_q)", domain, _an, n)


def gn_source(n: int, domain: PrimePowerDomain) -> fit.SequenceSource:
    _check_n(n, 2)
    return _source(f"#G{n}(F_q)", domain, _gn, n)


def pell_source(conic: PellConic, domain: PrimePowerDomain) -> fit.SequenceSource:
    return _source(f"#Pell(D={conic.disc})(F_q)", domain, _pell, conic.disc)
