"""Puiseux polynomials: finite sums a*t^e with rational a and rational e >= 0.

Values at positive integers are pinned down exactly.  Each polynomial is
compiled once into integers: f(q) = (1/L) * sum A_n * rho^n, where
rho = q^(1/d) (positive real branch) and d, L are the common exponent and
coefficient denominators.  One integer root R = floor(rho * 2^b) bounds each
term between (R/2^b)^n and ((R+1)/2^b)^n, and R^d = radicand makes it exact.
Otherwise f(q) is rational only if its irrational parts cancel, which a
radical decomposition decides, or it is irrational and doubling b separates
it from every integer after finitely many steps.  floor_eval/ceil_eval
therefore never return a wrong answer and never rely on floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import reduce

from .arith import factorize, iroot

_MAX_BITS = 1 << 16  # unreachable: past 512 bits we already know f(q) is irrational


class PuiseuxPoly:
    """Immutable canonical form: terms (coeff, exponent) by decreasing exponent,
    no zero coefficients, exponents distinct and >= 0."""

    __slots__ = ("terms", "_compiled")

    def __init__(self, terms=()):
        merged: dict[Fraction, Fraction] = {}
        for coeff, exp in terms:
            c = Fraction(coeff)
            e = Fraction(exp)
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            merged[e] = merged.get(e, Fraction(0)) + c
        canon = tuple(
            (c, e) for e, c in sorted(merged.items(), reverse=True) if c != 0
        )
        object.__setattr__(self, "terms", canon)
        # (d, L, ((A_n, n), ...), N): f(q) = (1/L) sum A_n q^(n/d), N the top n
        d = reduce(math.lcm, (e.denominator for _, e in canon), 1)
        lcd = reduce(math.lcm, (c.denominator for c, _ in canon), 1)
        ints = tuple(
            (c.numerator * (lcd // c.denominator), e.numerator * (d // e.denominator))
            for c, e in canon
        )
        object.__setattr__(self, "_compiled", (d, lcd, ints, ints[0][1] if ints else 0))

    def __setattr__(self, *_):
        raise AttributeError("PuiseuxPoly is immutable")

    # --- construction helpers -------------------------------------------

    @classmethod
    def zero(cls) -> "PuiseuxPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "PuiseuxPoly":
        return cls([(Fraction(c), Fraction(0))])

    @classmethod
    def t_power(cls, e, coeff=1) -> "PuiseuxPoly":
        return cls([(Fraction(coeff), Fraction(e))])

    @classmethod
    def linear(cls, c) -> "PuiseuxPoly":
        """t + c."""
        return cls([(Fraction(1), Fraction(1)), (Fraction(c), Fraction(0))])

    # --- ring-fragment operations ---------------------------------------

    def __add__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        return PuiseuxPoly(self.terms + other.terms)

    def __neg__(self) -> "PuiseuxPoly":
        return PuiseuxPoly([(-c, e) for c, e in self.terms])

    def __sub__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        return self + (-other)

    def scale(self, c) -> "PuiseuxPoly":
        c = Fraction(c)
        if c == 0:
            return PuiseuxPoly()
        return PuiseuxPoly([(a * c, e) for a, e in self.terms])

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

    @property
    def is_ordinary(self) -> bool:
        return self.exponent_denominator == 1

    def value_at_one(self) -> tuple[Fraction, bool]:
        """Sum of coefficients, and whether it is an integer."""
        s = sum((c for c, _ in self.terms), Fraction(0))
        return s, s.denominator == 1

    # --- exact evaluation --------------------------------------------------

    def eval_exact(self, q: int) -> Fraction:
        """Exact rational value at q; q must be a perfect d-th power."""
        if q < 1:
            raise ValueError("evaluation domain is q >= 1")
        lo, hi, den = self._bounds(q, 0)
        if lo != hi:
            raise ValueError(f"{q} is not a perfect {self.exponent_denominator}-th power")
        return Fraction(lo, den)

    def _rational_value(self, q: int) -> Fraction | None:
        """f(q) as a Fraction when it is rational, else None.

        Write q = w^g with w not a perfect power; each t^e contributes a
        rational multiple of w^(r/D) with 0 <= r/D < 1.  Those fractional
        powers of w are linearly independent over Q, so f(q) is rational
        exactly when every fractional residue class cancels.
        """
        if q == 1:
            return self.value_at_one()[0]
        fact = factorize(q)
        g = reduce(math.gcd, (e for _, e in fact))
        w = 1
        for p, e in fact:
            w *= p ** (e // g)
        buckets: dict[Fraction, Fraction] = {}
        for c, e in self.terms:
            beta = e * g  # exponent of w
            i, r = divmod(beta.numerator, beta.denominator)
            key = Fraction(r, beta.denominator)
            buckets[key] = buckets.get(key, Fraction(0)) + c * w**i
        for key, coeff in buckets.items():
            if key != 0 and coeff != 0:
                return None
        return buckets.get(Fraction(0), Fraction(0))

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

    def floor_eval(self, q: int) -> int:
        """Exact floor of f(q) for integer q >= 1."""
        return self._rounded(q, False)

    def ceil_eval(self, q: int) -> int:
        """Exact ceiling of f(q) for integer q >= 1."""
        return self._rounded(q, True)

    def _rounded(self, q: int, up: bool) -> int:
        if q < 1:
            raise ValueError("evaluation domain is q >= 1")
        bits = 0 if self._compiled[0] == 1 else 64  # an ordinary f is exact at 0 bits
        while bits <= _MAX_BITS:
            lo, hi, den = self._bounds(q, bits)
            if up:  # ceil(x) = -floor(-x)
                lo, hi = -hi, -lo
            low = lo // den
            if low == hi // den:
                return -low if up else low
            if bits == 512:
                exact = self._rational_value(q)
                if exact is not None:
                    return math.ceil(exact) if up else math.floor(exact)
                # irrational: the bounds must separate it from every integer
            bits *= 2
        raise RuntimeError(f"interval refinement did not resolve at q={q}")


def expand_binomial(t_factor: int, r: int) -> PuiseuxPoly:
    """T*(t-1)^r expanded into canonical form."""
    if r < 0:
        raise ValueError("power must be non-negative")
    terms = [
        (Fraction(t_factor * (-1) ** (r - k) * math.comb(r, k)), Fraction(k))
        for k in range(r + 1)
    ]
    return PuiseuxPoly(terms)


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
    """Fraction(text), with a zero denominator reported as a ValueError."""
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
            coeff = Fraction(1)
        if m.group("t") is None:
            exp = Fraction(0)
        elif m.group("ie") is not None:
            exp = Fraction(int(m.group("ie")))
        elif m.group("be") is not None:
            exp = parse_fraction(m.group("be").replace(" ", ""))
        elif m.group("pe") is not None:
            exp = parse_fraction(m.group("pe").replace(" ", ""))
        else:
            exp = Fraction(1)
        terms.append((sign * coeff, exp))
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
