"""Puiseux polynomials: finite sums a*t^e with rational a and rational e >= 0.

The canonical form is kept in integers: canonical_terms keys each term by
n = e*d, d the least common denominator of the exponents, adds coefficients
only where an exponent repeats, and recomputes d over the terms that
survive; Fractions are built for those terms alone.  zeta.FormalProduct
keys its roots the same way.

Each polynomial is compiled once into integers: f(q) = (1/L) * sum A_n *
rho^n, where rho = q^(1/d) (positive real branch) and d, L are the common
exponent and coefficient denominators.  fit decides its candidates from these
integers, for exponents in (1/2)Z only.  _bounds(q, b) brackets f(q) between
two integers over one denominator from one integer root R = floor(rho * 2^b):
each term lies between (R/2^b)^n and ((R+1)/2^b)^n, and R^d = radicand makes
the bounds meet.  It prints the interval of a violated half-integer candidate.
"""

from __future__ import annotations

import math
import numbers
import re
from fractions import Fraction

from .arith import iroot


def _rational(x):
    """x as an int or a Fraction: an int or a Fraction as it is, any other
    integer (bool, numpy) through int(), anything else through Fraction()."""
    if type(x) is int or type(x) is Fraction:
        return x
    return int(x) if isinstance(x, numbers.Integral) else Fraction(x)


def _fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def canonical_terms(pairs, descending: bool, nonnegative: bool = False):
    """The canonical form of a sum of (value, key) pairs of rationals, as
    (d, [(n, key, value), ...]): each key is n/d, with d the least common
    denominator of the keys that survive, and the values of a repeated key
    are added.  Zero values are dropped and the rest sorted by n.  Keys are
    compared as the integers n, so a Fraction is built only for the keys and
    values that survive.  With nonnegative, a key below 0 raises ValueError."""
    read = [(_rational(k), _rational(v)) for v, k in pairs]
    d = math.lcm(*[k.denominator for k, _ in read])
    merged: dict = {}  # n -> (key, value)
    for k, v in read:
        if nonnegative and k.numerator < 0:
            raise ValueError(f"negative exponent {k}")
        n = k.numerator * (d // k.denominator)
        merged[n] = (k, merged[n][1] + v) if n in merged else (k, v)
    kept = sorted([(n, kv) for n, kv in merged.items() if kv[1]], reverse=descending)
    g = math.gcd(d, *[n for n, _ in kept])  # d/g: the denominator of the survivors
    if g > 1:
        d //= g
        return d, [(n // g, Fraction(n // g, d), _fraction(v)) for n, (_, v) in kept]
    return d, [(n, _fraction(k), _fraction(v)) for n, (k, v) in kept]


class PuiseuxPoly:
    """Immutable canonical form: terms (coeff, exponent) by decreasing exponent,
    no zero coefficients, exponents distinct and >= 0."""

    __slots__ = ("terms", "_compiled")

    def __init__(self, terms=()):
        d, kept = canonical_terms(terms, descending=True, nonnegative=True)
        object.__setattr__(self, "terms", tuple([(c, e) for _, e, c in kept]))
        # (d, L, ((A_n, n), ...), N): f(q) = (1/L) sum A_n q^(n/d), N the top n
        lcd = math.lcm(*[c.denominator for _, _, c in kept])
        ints = tuple([(c.numerator * (lcd // c.denominator), n) for n, _, c in kept])
        object.__setattr__(self, "_compiled", (d, lcd, ints, ints[0][1] if ints else 0))

    def __setattr__(self, *_):
        raise AttributeError("PuiseuxPoly is immutable")

    # --- construction helpers -------------------------------------------

    @classmethod
    def zero(cls) -> "PuiseuxPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "PuiseuxPoly":
        return cls([(c, 0)])

    @classmethod
    def t_power(cls, e, coeff=1) -> "PuiseuxPoly":
        return cls([(coeff, e)])

    @classmethod
    def linear(cls, c) -> "PuiseuxPoly":
        """t + c."""
        return cls([(1, 1), (c, 0)])

    # --- ring-fragment operations ---------------------------------------

    def __add__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        return PuiseuxPoly(self.terms + other.terms)

    def __neg__(self) -> "PuiseuxPoly":
        return PuiseuxPoly([(-c, e) for c, e in self.terms])

    def __sub__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return isinstance(other, PuiseuxPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"PuiseuxPoly({format_puiseux(self)!r})"

    # --- structure --------------------------------------------------------

    @property
    def exponent_denominator(self) -> int:
        """Least common denominator d of all exponents (1 for the zero poly)."""
        return self._compiled[0]

    def value_at_one(self) -> tuple[Fraction, bool]:
        """Sum of coefficients, and whether it is an integer: (1/L) sum A_n."""
        _, lcd, ints, _ = self._compiled
        s = sum(a for a, _ in ints)
        return Fraction(s, lcd), s % lcd == 0

    # --- certified interval ----------------------------------------------

    def _bounds(self, q: int, bits: int) -> tuple[int, int, int]:
        """Integers lo, hi, den with lo/den <= f(q) <= hi/den, from
        R = floor(q^(1/d) * 2^bits); lo == hi exactly when q is a perfect
        d-th power, which for d = 1 is every q."""
        d, den, terms, top = self._compiled
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


def binomial_terms(t_factor: int, r: int) -> list[tuple[int, int]]:
    """The (coefficient, exponent) terms of T*(t-1)^r."""
    if r < 0:
        raise ValueError("power must be non-negative")
    return [(t_factor * (-1) ** (r - k) * math.comb(r, k), k) for k in range(r + 1)]


def expand_binomial(t_factor: int, r: int) -> PuiseuxPoly:
    """T*(t-1)^r expanded into canonical form."""
    return PuiseuxPoly(binomial_terms(t_factor, r))


# --- text form -------------------------------------------------------------

_TERM_RE = re.compile(
    r"""^
    (?:\(\s*(?P<pc>\d+)\s*/\s*(?P<pd>\d+)\s*\)   # (a/b) coefficient
      |(?P<c>\d+(?:/\d+)?)                       # bare integer or a/b
    )?
    \s*\*?\s*
    (?P<t>t
      (?:\^(?:
          (?P<ie>\d+)
         |\{\s*(?P<be>\d+(?:\s*/\s*\d+)?)\s*\}
         |\(\s*(?P<pe>\d+(?:\s*/\s*\d+)?)\s*\)
      ))?
    )?
    $""",
    re.VERBOSE,
)


def _split_top_level(text: str) -> list[tuple[int, str]]:
    """Split on +/- outside braces/parens; returns (sign, chunk) pairs."""
    chunks = []
    depth = 0
    sign = 1
    cur = []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if depth == 0 and ch in "+-" and cur and any(c.strip() for c in cur):
            chunks.append((sign, "".join(cur).strip()))
            sign = 1 if ch == "+" else -1
            cur = []
        elif depth == 0 and ch in "+-" and not any(c.strip() for c in cur):
            sign = sign if ch == "+" else -sign
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        chunks.append((sign, tail))
    return chunks


def parse_fraction(text: str) -> Fraction:
    """Fraction(text), with a zero denominator reported as a ValueError; a
    plain ASCII digit string is read by int()."""
    if text.isascii() and text.isdigit():
        return Fraction(int(text))
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def parse_puiseux(text: str) -> PuiseuxPoly:
    """Parse sums of terms like '3t^2', '2t^{1/2}', 't^(3/2)', '-1'."""
    text = text.strip()
    if text.endswith(("+", "-")):
        raise ValueError(f"dangling operator in {text!r}")
    if not text or text == "0":
        return PuiseuxPoly()
    terms = []
    for sign, chunk in _split_top_level(text):
        m = _TERM_RE.match(chunk.replace(" ", ""))
        if not m or (m.group("c") is None and m.group("pc") is None and m.group("t") is None):
            raise ValueError(f"cannot parse term {chunk!r}")
        if m.group("pc") is not None:
            coeff = parse_fraction(f"{m.group('pc')}/{m.group('pd')}")
        elif m.group("c") is not None:
            coeff = parse_fraction(m.group("c"))
        else:
            coeff = 1
        if m.group("t") is None:
            exp = 0
        elif m.group("ie") is not None:
            exp = int(m.group("ie"))
        elif m.group("be") is not None:
            exp = parse_fraction(m.group("be").replace(" ", ""))
        elif m.group("pe") is not None:
            exp = parse_fraction(m.group("pe").replace(" ", ""))
        else:
            exp = 1
        terms.append((-coeff if sign < 0 else coeff, exp))
    return PuiseuxPoly(terms)


def _coeff_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"({c.numerator}/{c.denominator})"


def format_puiseux(f: PuiseuxPoly) -> str:
    """Canonical text form; fractional exponents printed in braces."""
    if not f.terms:
        return "0"
    parts = []
    for i, (c, e) in enumerate(f.terms):
        mag = abs(c)
        if e == 0:
            body = _coeff_str(mag)
        else:
            if e == 1:
                var = "t"
            elif e.denominator == 1:
                var = f"t^{e.numerator}"
            else:
                var = f"t^{{{e.numerator}/{e.denominator}}}"
            body = var if mag == 1 else f"{_coeff_str(mag)}{var}"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
