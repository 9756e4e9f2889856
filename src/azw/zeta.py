"""Absolute zeta functions as exact formal products prod_rho (s-rho)^m(rho).

Roots and multiplicities are rationals in reduced form; equality is equality
of the multiplicity map.  The soule map sends a Puiseux polynomial
sum a*t^e to prod (s-e)^(-a); the tensor product is the modified Kurokawa
product on real roots (multiplicities negated).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .puiseux import PuiseuxPoly, _Tokens, canonical_terms


class FormalProduct:
    """prod over roots rho of (s - rho)^m(rho), as an immutable root->multiplicity map."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        items = factors.items() if isinstance(factors, dict) else factors
        _, kept = canonical_terms([(m, r) for r, m in items], descending=False)
        object.__setattr__(self, "factors", {r: m for _, r, m in kept})

    def __setattr__(self, *_):
        raise AttributeError("FormalProduct is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalProduct) and self.factors == other.factors

    def __hash__(self):
        return hash(tuple(self.factors.items()))

    def __mul__(self, other: "FormalProduct") -> "FormalProduct":
        return FormalProduct(list(self.factors.items()) + list(other.factors.items()))

    def __pow__(self, k: int) -> "FormalProduct":
        return FormalProduct([(r, m * k) for r, m in self.factors.items()])

    def __bool__(self):
        return bool(self.factors)

    def __repr__(self):
        return f"FormalProduct({format_product(self)!r})"

    def multiplicity_sum(self) -> Fraction:
        return sum(self.factors.values(), Fraction(0))


def soule_zeta(f: PuiseuxPoly) -> FormalProduct:
    """prod over terms (a, e) of f of (s - e)^(-a)."""
    return FormalProduct([(e, -c) for c, e in f.terms])


def tensor(z1: FormalProduct, z2: FormalProduct) -> FormalProduct:
    """Modified Kurokawa tensor product:
    m_out(rho) = - sum over rho1+rho2=rho of m1(rho1)*m2(rho2)."""
    acc: dict[Fraction, Fraction] = {}
    for r1, m1 in z1.factors.items():
        for r2, m2 in z2.factors.items():
            r = r1 + r2
            acc[r] = acc.get(r, Fraction(0)) - m1 * m2
    return FormalProduct(acc)


def reflect(z: FormalProduct, d) -> tuple[Optional[int], FormalProduct]:
    """Rewrite z(d - s) as sign * prod (s - (d - rho))^m(rho).

    sign = (-1)^(total multiplicity); when the total is not an integer the
    sign is reported as None and only the product is meaningful.
    """
    d = Fraction(d)
    flipped = FormalProduct([(d - r, m) for r, m in z.factors.items()])
    total = z.multiplicity_sum()
    if total.denominator != 1:
        return None, flipped
    sign = -1 if total.numerator % 2 else 1
    return sign, flipped


class FunctionalEquation(NamedTuple):
    symmetric: bool
    sign: Optional[int]


def check_functional_equation(z: FormalProduct, d) -> FunctionalEquation:
    """Whether z(d-s) equals sign * z(s); sign reported when symmetric."""
    sign, flipped = reflect(z, d)
    if flipped != z:
        return FunctionalEquation(False, None)
    return FunctionalEquation(True, sign)


# --- text form -------------------------------------------------------------


def _root_factor(root: Fraction, mult: Fraction) -> str:
    if root == 0:
        base = "s"
    else:
        op = "-" if root > 0 else "+"
        r = abs(root)
        rs = str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
        base = f"(s{op}{rs})"
    e = abs(mult)
    if e == 1:
        return base
    es = str(e.numerator) if e.denominator == 1 else f"({e.numerator}/{e.denominator})"
    return f"{base}^{es}"


def format_product(z: FormalProduct) -> str:
    """Fraction of monic factors, e.g. '(s-1/2)^2 / (s (s-1))'."""
    num = [_root_factor(r, m) for r, m in z.factors.items() if m > 0]
    den = [_root_factor(r, m) for r, m in z.factors.items() if m < 0]
    num_str = " ".join(num) if num else "1"
    if not den:
        return num_str
    den_str = den[0] if len(den) == 1 else f"({' '.join(den)})"
    return f"{num_str} / {den_str}"


def _read_side(tokens: _Tokens, sign: int, into: list) -> None:
    """Append the factors (root, sign * multiplicity) of one side: a
    sequence of '1', '*', s[^e], (s+r)[^e], (s-r)[^e] and grouping
    parentheses, up to a '/' or the end.  A '(' opens a factor exactly when
    's' and a sign follow it; an empty group is refused."""
    depth = 0  # grouping parentheses open on this side
    while True:
        tok = tokens.peek()
        if tok == "(" and not (tokens.peek(1) == "s" and tokens.peek(2) in ("+", "-")):
            tokens.take()
            if tokens.peek() == ")":
                raise tokens.error("a factor")
            depth += 1
        elif tok == ")" and depth:
            tokens.take()
            depth -= 1
        elif tok in ("1", "*"):
            tokens.take()
        elif tok in ("s", "("):
            root = 0
            if tokens.take() == "(":
                tokens.take("s")
                root = (-1 if tokens.take() == "+" else 1) * tokens.fraction()  # (s+r): root -r
                tokens.take(")")
            into.append((root, sign * tokens.exponent(braces=False)))
        else:
            break
    if depth:
        tokens.take(")")


def parse_product(text: str) -> FormalProduct:
    """Parse the printer's grammar, e.g. '(s-1/2)^2 / (s (s-1))' or '1': at
    most one '/' between two sides (see _read_side)."""
    tokens = _Tokens(text)
    factors: list = []
    _read_side(tokens, 1, factors)
    if tokens.peek() == "/":
        tokens.take()
        _read_side(tokens, -1, factors)
    if tokens.peek():
        raise tokens.error("a factor, '/' or the end")
    return FormalProduct(factors)
