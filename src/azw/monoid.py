"""Finite monoid schemes given by their stalk unit-group invariants.

A point carries a rank r and a torsion chain t_1 | t_2 | ... (entries >= 2);
the counting formulas depend on nothing else:

    #X(F_{1^n})   = sum over points of n^r * prod_j gcd(n, t_j)
    #X_Z(F_q)     = #X(F_{1^(q-1)})        for q a prime power

Torsion input is canonicalized to the divisibility chain (prime-power lists
are recombined into invariant factors on ingestion), so representation is
unique and gcd products are preserved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

from . import fit
from .arith import PrimePowerDomain, factorize
from .puiseux import PuiseuxPoly, binomial_terms
from .zeta import FormalProduct


def _invariant_chain(entries: Iterable[int]) -> tuple[int, ...]:
    """Canonical divisibility chain of prod Z/t for the given entries."""
    by_prime: dict[int, list[int]] = {}
    for t in entries:
        if t < 1:
            raise ValueError(f"torsion entry {t} must be >= 1")
        if t == 1:
            continue
        for p, e in factorize(t):
            by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    for exps in by_prime.values():
        exps.sort(reverse=True)
    length = max(len(v) for v in by_prime.values())
    chain = []
    for k in range(length):  # k = 0 is the largest invariant factor
        f = 1
        for p, exps in by_prime.items():
            if k < len(exps):
                f *= p ** exps[k]
        chain.append(f)
    chain.reverse()
    return tuple(chain)


@dataclass(frozen=True)
class MonoidSchemePoint:
    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        object.__setattr__(self, "torsion", _invariant_chain(self.torsion))

    @property
    def torsion_order(self) -> int:
        return math.prod(self.torsion)


@dataclass(frozen=True)
class MonoidScheme:
    points: tuple[MonoidSchemePoint, ...] = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def max_rank(self) -> int:
        return max((pt.rank for pt in self.points), default=0)

    @property
    def torsion_order(self) -> int:
        return math.prod(pt.torsion_order for pt in self.points)

    def __repr__(self):
        return f"MonoidScheme({self.label or len(self.points)} pts)"


def count_f1n(x: MonoidScheme, n: int) -> int:
    """#X(F_{1^n})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for pt in x.points:
        v = n**pt.rank
        for t in pt.torsion:
            v *= math.gcd(n, t)
        total += v
    return total


def count_zlift(x: MonoidScheme, q: int) -> int:
    """#X_Z(F_q) = #X(F_{1^(q-1)}); q must be a prime power."""
    fact = factorize(q)
    if len(fact) != 1 or q < 2:
        raise ValueError(f"{q} is not a prime power")
    return count_f1n(x, q - 1)


def _torsion_floor_factor(pt: MonoidSchemePoint, excluded: frozenset[int]) -> int:
    # 2^e per chain entry, e = 1 exactly when the entry is even and 2 is excluded
    f = 1
    if 2 in excluded:
        for t in pt.torsion:
            if t % 2 == 0:
                f *= 2
    return f


def _poly_from_weights(x: MonoidScheme, weight) -> PuiseuxPoly:
    """sum over points of weight(pt)*(t-1)^r, built from one term list."""
    return PuiseuxPoly(t for pt in x.points for t in binomial_terms(weight(pt), pt.rank))


def ceiling_poly(x: MonoidScheme) -> PuiseuxPoly:
    """sum over points of T*(t-1)^r; independent of any excluded prime set."""
    return _poly_from_weights(x, lambda pt: pt.torsion_order)


def floor_poly(x: MonoidScheme, excluded: Iterable[int] = ()) -> PuiseuxPoly:
    """sum over points of T_S*(t-1)^r, where T_S doubles once per even chain
    entry when 2 is excluded."""
    s = frozenset(excluded)
    return _poly_from_weights(x, lambda pt: _torsion_floor_factor(pt, s))


def _zeta_from_weights(x: MonoidScheme, weight) -> FormalProduct:
    factors = []
    for k in range(x.max_rank + 1):
        e = sum(
            weight(pt) * (-1) ** (pt.rank - k + 1) * math.comb(pt.rank, k)
            for pt in x.points
        )
        factors.append((k, e))
    return FormalProduct(factors)


def zeta_product(x: MonoidScheme) -> FormalProduct:
    """prod_k (s-k)^(sum_x T_x (-1)^(r-k+1) C(r,k)), the absolute zeta of the
    ceiling polynomial in closed form."""
    return _zeta_from_weights(x, lambda pt: pt.torsion_order)


def zeta_floor_product(x: MonoidScheme, excluded: Iterable[int] = ()) -> FormalProduct:
    s = frozenset(excluded)
    return _zeta_from_weights(x, lambda pt: _torsion_floor_factor(pt, s))


def f1_ceiling_floor(x: MonoidScheme) -> tuple[PuiseuxPoly, PuiseuxPoly]:
    """Envelopes of (#X(F_{1^(n-1)}))_{n>=2}: ceiling keeps torsion orders,
    floor drops them entirely."""
    return ceiling_poly(x), _poly_from_weights(x, lambda pt: 1)


def qfiber_ceiling_floor(x: MonoidScheme) -> tuple[PuiseuxPoly, PuiseuxPoly]:
    """Envelopes of the generic fiber: ceiling as usual, floor with 2 excluded."""
    return ceiling_poly(x), floor_poly(x, {2})


# --- model library ----------------------------------------------------------


def spec_f1n(n: int, label: str = "") -> MonoidScheme:
    """One point; unit group the cyclic group of order n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    torsion = (n,) if n > 1 else ()
    return MonoidScheme((MonoidSchemePoint(0, torsion),), label or f"spec F_1^{n}")


def multiplicative_group(label: str = "Gm") -> MonoidScheme:
    return MonoidScheme((MonoidSchemePoint(1),), label)


def affine_space(n: int, label: str = "") -> MonoidScheme:
    """2^n points: C(n,k) of rank k; counts sum to q^n."""
    pts = []
    for k in range(n + 1):
        pts.extend([MonoidSchemePoint(k)] * math.comb(n, k))
    return MonoidScheme(tuple(pts), label or f"A^{n}")


def projective_space(n: int, label: str = "") -> MonoidScheme:
    """C(n+1,k+1) points of rank k; counts sum to 1 + q + ... + q^n."""
    pts = []
    for k in range(n + 1):
        pts.extend([MonoidSchemePoint(k)] * math.comb(n + 1, k + 1))
    return MonoidScheme(tuple(pts), label or f"P^{n}")


def disjoint_union(*schemes: MonoidScheme, label: str = "") -> MonoidScheme:
    pts: list[MonoidSchemePoint] = []
    for x in schemes:
        pts.extend(x.points)
    return MonoidScheme(tuple(pts), label or " + ".join(x.label for x in schemes))


def product(x: MonoidScheme, y: MonoidScheme, label: str = "") -> MonoidScheme:
    """Pointwise pairs; ranks add, torsion chains merge via invariant factors."""
    pts = [
        MonoidSchemePoint(a.rank + b.rank, a.torsion + b.torsion)
        for a in x.points
        for b in y.points
    ]
    return MonoidScheme(tuple(pts), label or f"{x.label} x {y.label}")


# --- JSON ingestion ----------------------------------------------------------


def scheme_to_dict(x: MonoidScheme) -> dict:
    return {
        "label": x.label,
        "points": [{"r": pt.rank, "torsion": list(pt.torsion)} for pt in x.points],
    }


def _json_int(value) -> int:
    """A JSON integer as read by json.load: an int, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, not {value!r}")
    return value


def scheme_from_dict(data: dict) -> MonoidScheme:
    try:
        pts = tuple(
            MonoidSchemePoint(_json_int(p["r"]), tuple(_json_int(t) for t in p.get("torsion", ())))
            for p in data["points"]
        )
        return MonoidScheme(pts, str(data.get("label", "")))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed monoid scheme JSON: {exc}") from exc


def load_scheme(path: str) -> MonoidScheme:
    with open(path, "r", encoding="utf-8") as fh:
        return scheme_from_dict(json.load(fh))


def save_scheme(x: MonoidScheme, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scheme_to_dict(x), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- count sources for the verification engine ------------------------------


def zlift_source(x: MonoidScheme, domain: PrimePowerDomain) -> fit.SequenceSource:
    """(#X_Z(F_q))_q over a prime-power domain."""
    if domain.kind == "naturals_from_2":
        raise ValueError("zlift counts live on prime-power domains")
    return fit.SequenceSource(
        label=f"#({x.label or 'X'})_Z(F_q)",
        domain=domain,
        fn=lambda pt: count_f1n(x, pt.q - 1),
    )


def f1_source(x: MonoidScheme, limit: int) -> fit.SequenceSource:
    """(#X(F_{1^(n-1)}))_{n=2..limit} over the naturals."""
    domain = PrimePowerDomain(frozenset(), "naturals_from_2", limit)
    return fit.SequenceSource(
        label=f"#({x.label or 'X'})(F_1^(n-1))",
        domain=domain,
        fn=lambda pt: count_f1n(x, pt.q - 1),
    )
