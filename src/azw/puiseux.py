"""Puiseux polynomials: finite sums a*t^e with rational a and rational e >= 0.

The canonical form is kept in integers: canonical_terms keys each term by
n = e*d, d the least common denominator of the exponents, adds coefficients
only where an exponent repeats, and recomputes d over the terms that
survive; Fractions are built for those terms alone.  zeta.FormalProduct
keys its roots the same way.

A PuiseuxPoly holds exact algebra and text only.  fit._compile writes a
candidate in integers, and fit decides and prints it from them; the tests'
certified evaluator (tests/certified.py) brackets f(q) from the same form.
"""

from __future__ import annotations

import math
import numbers
import re
from fractions import Fraction


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

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        _, kept = canonical_terms(terms, descending=True, nonnegative=True)
        object.__setattr__(self, "terms", tuple([(c, e) for _, e, c in kept]))

    def __setattr__(self, *_):
        raise AttributeError("PuiseuxPoly is immutable")

    # --- construction helpers -------------------------------------------

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

    # --- value --------------------------------------------------------------

    def value_at_one(self) -> tuple[Fraction, bool]:
        """Sum of coefficients, and whether it is an integer."""
        s = sum([c for c, _ in self.terms], Fraction(0))
        return s, s.denominator == 1


def binomial_terms(t_factor: int, r: int) -> list[tuple[int, int]]:
    """The (coefficient, exponent) terms of T*(t-1)^r."""
    if r < 0:
        raise ValueError("power must be non-negative")
    return [(t_factor * (-1) ** (r - k) * math.comb(r, k), k) for k in range(r + 1)]


def expand_binomial(t_factor: int, r: int) -> PuiseuxPoly:
    """T*(t-1)^r expanded into canonical form."""
    return PuiseuxPoly(binomial_terms(t_factor, r))


# --- text form -------------------------------------------------------------

def parse_fraction(text: str) -> Fraction:
    """Fraction(text), with a zero denominator reported as a ValueError; a
    plain ASCII digit string is read by int()."""
    if text.isascii() and text.isdigit():
        return Fraction(int(text))
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


class _Tokens:
    """A text form as tokens, read left to right: runs of digits and single
    non-blank characters, so a blank only separates tokens.  peek() is ""
    past the end, and every refusal is one ValueError that names the text."""

    __slots__ = ("text", "items", "i")

    def __init__(self, text: str):
        self.text, self.items, self.i = text, re.findall(r"\d+|\S", text), 0

    def peek(self, ahead: int = 0) -> str:
        i = self.i + ahead
        return self.items[i] if i < len(self.items) else ""

    def take(self, want: str = "") -> str:
        """The next token, which must be `want` when one is given ("INT":
        any run of digits)."""
        tok = self.peek()
        if want and tok != want and not (want == "INT" and tok.isdecimal()):
            raise self.error("a number" if want == "INT" else repr(want))
        self.i += 1
        return tok

    def error(self, what: str) -> ValueError:
        found = repr(self.peek()) if self.peek() else "the end"
        return ValueError(f"cannot parse {self.text!r}: expected {what}, found {found}")

    def fraction(self):
        """INT as an int, or INT/INT as a Fraction through parse_fraction."""
        num = self.take("INT")
        if self.peek() != "/":
            return int(num)
        self.i += 1
        return parse_fraction(f"{num}/{self.take('INT')}")

    def exponent(self, braces: bool):
        """The exponent after an optional '^', 1 without one: INT, (frac),
        and with braces also {frac}."""
        if self.peek() != "^":
            return 1
        self.i += 1
        close = ")" if self.peek() == "(" else "}" if braces and self.peek() == "{" else ""
        if not close:
            return int(self.take("INT"))
        self.i += 1
        e = self.fraction()
        self.take(close)
        return e


def parse_puiseux(text: str) -> PuiseuxPoly:
    """Parse a sum of terms such as '3t^2', '-2t^{1/2}', '(1/2)t^(3/2)' or
    '-1'.  A term is [signs] coeff ['*'] ['t' ['^' exp]] or [signs] 't'
    ['^' exp], coeff a fraction or (fraction); a run of signs multiplies,
    and every term after the first starts with one."""
    tokens = _Tokens(text)
    terms = []
    while tokens.peek():
        if terms and tokens.peek() not in ("+", "-"):
            raise tokens.error("'+' or '-'")
        negative = False
        while tokens.peek() in ("+", "-"):
            negative ^= tokens.take() == "-"
        coeff, exp = 1, 0
        if tokens.peek() != "t":
            opened = tokens.peek() == "(" and tokens.take()
            coeff = tokens.fraction()
            if opened:
                tokens.take(")")
        if tokens.peek() in ("*", "t"):  # a '*' only stands between a coeff and t
            if tokens.take() == "*":
                tokens.take("t")
            exp = tokens.exponent(braces=True)
        terms.append((-coeff if negative else coeff, exp))
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
