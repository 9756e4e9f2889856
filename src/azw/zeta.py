"""Absolute zeta functions as exact formal products prod_rho (s-rho)^m(rho).

Roots and multiplicities are rationals in reduced form; equality is equality
of the multiplicity map.  The soule map sends a Puiseux polynomial
sum a*t^e to prod (s-e)^(-a); the tensor product is the modified Kurokawa
product on real roots (multiplicities negated).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .puiseux import PuiseuxPoly, parse_fraction


class FormalProduct:
    """prod over roots rho of (s - rho)^m(rho), as an immutable root->multiplicity map."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        merged: dict[Fraction, Fraction] = {}
        items = factors.items() if isinstance(factors, dict) else factors
        for root, mult in items:
            r = Fraction(root)
            m = Fraction(mult)
            merged[r] = merged.get(r, Fraction(0)) + m
        canon = {r: m for r, m in sorted(merged.items()) if m != 0}
        object.__setattr__(self, "factors", canon)

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


_FACTOR_RE = re.compile(
    r"""\(\s*s\s*(?P<op>[+-])\s*(?P<root>\d+(?:\s*/\s*\d+)?)\s*\)
        (?:\^(?:(?P<ie>\d+)|\(\s*(?P<fe>\d+(?:\s*/\s*\d+)?)\s*\)))?
      | (?P<s>s)(?:\^(?:(?P<sie>\d+)|\(\s*(?P<sfe>\d+(?:\s*/\s*\d+)?)\s*\)))?
      | (?P<one>1)
    """,
    re.VERBOSE,
)


def _parse_factor_group(text: str, sign: int, into: list) -> None:
    pos = 0
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        # outer grouping parens only if they do not belong to a single factor
        inner = text[1:-1]
        depth = 0
        balanced = True
        for ch in inner:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    balanced = False
                    break
        if balanced and depth == 0 and ("(" in inner or inner.strip() in ("", "s") or " " in inner.strip()):
            text = inner.strip()
    while pos < len(text):
        if text[pos].isspace() or text[pos] == "*":
            pos += 1
            continue
        m = _FACTOR_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse factor near {text[pos:]!r}")
        if m.group("one"):
            pos = m.end()
            continue
        if m.group("s"):
            root = Fraction(0)
            e = m.group("sie") or m.group("sfe")
        else:
            root = parse_fraction(m.group("root").replace(" ", ""))
            if m.group("op") == "+":
                root = -root
            e = m.group("ie") or m.group("fe")
        mult = parse_fraction(e.replace(" ", "")) if e else Fraction(1)
        into.append((root, sign * mult))
        pos = m.end()


def parse_product(text: str) -> FormalProduct:
    """Parse the printer's grammar, e.g. '(s-1/2)^2 / (s (s-1))' or '1'."""
    depth = 0
    split = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            split = i
            break
    factors: list[tuple[Fraction, Fraction]] = []
    if split is None:
        _parse_factor_group(text, 1, factors)
    else:
        _parse_factor_group(text[:split], 1, factors)
        _parse_factor_group(text[split + 1 :], -1, factors)
    return FormalProduct(factors)
