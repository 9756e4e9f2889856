"""Empirical ceiling/floor verification over finite count domains.

"Bounds the sequence and attains it infinitely often" is operationalized as:
the bound holds at every point up to the domain limit, and equality holds at
at least witness_threshold points.  Every verdict records the scanned limit,
the threshold and the excluded primes, so a 'verified' is always a statement
about a declared finite scan, never a proof.

All comparisons between an integer count and a possibly irrational candidate
value go through the certified floor/ceil of the puiseux module: for an
integer A, A <= f(n) iff A <= floor(f(n)), and f(n) <= A iff ceil(f(n)) <= A.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .arith import DomainPoint, PrimePowerDomain, enumerate_domain
from .puiseux import PuiseuxPoly

VERIFIED = "verified"
BOUND_VIOLATED = "bound_violated"
INSUFFICIENT_WITNESSES = "insufficient_witnesses"
NON_INTEGRAL_AT_ONE = "non_integral_at_one"

# Most offsets (or constant-term counts) search_polynomial holds for one block
# of coefficient tuples: about 2 MB of int64 whatever the box, unless a single
# tuple's row (one offset per domain point) is longer.
SEARCH_BLOCK_ENTRIES = 1 << 18


@dataclass
class SequenceSource:
    """Deterministic integer sequence over a count domain.

    fn maps a DomainPoint to the count A_q; values are computed once and
    cached so that many candidates can be checked against one sweep.
    """

    label: str
    domain: PrimePowerDomain
    fn: Callable[[DomainPoint], int]
    _values: Optional[list[tuple[DomainPoint, int]]] = field(
        default=None, repr=False, compare=False
    )

    def values(self) -> list[tuple[DomainPoint, int]]:
        if self._values is None:
            self._values = [(pt, self.fn(pt)) for pt in enumerate_domain(self.domain)]
        return self._values


@dataclass(frozen=True)
class Violation:
    n: int
    count: int
    candidate_value: str


@dataclass(frozen=True)
class Verdict:
    status: str
    mode: str  # 'ceiling' or 'floor'
    witnesses: tuple[int, ...]
    violation: Optional[Violation]
    scanned_limit: int
    witness_threshold: int
    puiseux_mode: bool
    source_label: str
    excluded: frozenset[int]

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    def summary(self) -> str:
        head = f"{self.mode} candidate on {self.source_label}: {self.status}"
        excluded = ", ".join(str(p) for p in sorted(self.excluded))
        tail = (
            f" (witnesses {len(self.witnesses)}/{self.witness_threshold},"
            f" limit {self.scanned_limit},"
            f" excluded {{{excluded}}})"
        )
        if self.violation:
            v = self.violation
            tail += f"; violated at n={v.n}: count {v.count} vs f(n)={v.candidate_value}"
        return head + tail


def _value_descriptor(f: PuiseuxPoly, n: int) -> str:
    if f.is_ordinary:
        return str(f.eval_exact(n))
    lo, hi, den = f._bounds(n, 64)
    return f"[{lo / den:.6f}, {hi / den:.6f}]"


def _verdict(
    src: SequenceSource,
    mode: str,
    witness_threshold: int,
    witnesses=(),
    violation: Optional[Violation] = None,
    puiseux_mode: bool = False,
) -> Verdict:
    """The verdict of a scan of src that collected `witnesses` and stopped at
    `violation`, or reached the limit when it is None."""
    if violation is not None:
        status = BOUND_VIOLATED
    elif len(witnesses) >= witness_threshold:
        status = VERIFIED
    else:
        status = INSUFFICIENT_WITNESSES
    return Verdict(
        status=status,
        mode=mode,
        witnesses=tuple(witnesses),
        violation=violation,
        scanned_limit=src.domain.limit,
        witness_threshold=witness_threshold,
        puiseux_mode=puiseux_mode,
        source_label=src.label,
        excluded=src.domain.excluded,
    )


def _scan(
    f: PuiseuxPoly,
    src: SequenceSource,
    mode: str,
    witness_threshold: int,
    puiseux_mode: bool,
) -> Verdict:
    if puiseux_mode:
        _, integral = f.value_at_one()
        if not integral:
            return replace(
                _verdict(src, mode, witness_threshold, puiseux_mode=True),
                status=NON_INTEGRAL_AT_ONE,
            )

    # A rounded value equal to the count is a witness by itself in puiseux
    # mode, and for an integer-valued f, whose floor and ceiling agree.
    rounded_is_exact = puiseux_mode or f.is_integer_valued
    witnesses: list[int] = []
    for pt, count in src.values():
        n = pt.q
        if mode == "ceiling":
            fl = f.floor_eval(n)
            if count > fl:  # count <= f(n) fails
                violation = Violation(n, count, _value_descriptor(f, n))
                return _verdict(src, mode, witness_threshold, witnesses, violation, puiseux_mode)
            hit = fl == count and (rounded_is_exact or f.ceil_eval(n) == count)
        else:
            cl = f.ceil_eval(n)
            if count < cl:  # f(n) <= count fails
                violation = Violation(n, count, _value_descriptor(f, n))
                return _verdict(src, mode, witness_threshold, witnesses, violation, puiseux_mode)
            hit = cl == count and (rounded_is_exact or f.floor_eval(n) == count)
        if hit:
            witnesses.append(n)
    return _verdict(src, mode, witness_threshold, witnesses, puiseux_mode=puiseux_mode)


def verify_ceiling(
    f: PuiseuxPoly,
    src: SequenceSource,
    witness_threshold: int = 3,
    puiseux_mode: bool = False,
) -> Verdict:
    """Check f(n) >= A_n everywhere and collect equality witnesses.

    In puiseux mode a witness is floor(f(n)) = A_n and f(1) must be an
    integer; otherwise a witness is exact equality f(n) = A_n.
    """
    return _scan(f, src, "ceiling", witness_threshold, puiseux_mode)


def verify_floor(
    f: PuiseuxPoly,
    src: SequenceSource,
    witness_threshold: int = 3,
    puiseux_mode: bool = False,
) -> Verdict:
    """Dual of verify_ceiling: f(n) <= A_n, witnesses ceil(f(n)) = A_n."""
    return _scan(f, src, "floor", witness_threshold, puiseux_mode)


@dataclass(frozen=True)
class LinearCandidateReport:
    c: int
    ceiling: Verdict
    floor: Verdict


def reject_linear_family(
    src: SequenceSource,
    c_lo: int,
    c_hi: int,
    witness_threshold: int = 3,
) -> list[LinearCandidateReport]:
    """Run both envelope checks for every candidate t + c, c in [c_lo, c_hi].

    Reports the concrete failure per candidate (a violating point, or a
    witness shortfall); a candidate may also come back verified, which is the
    caller's signal that an envelope exists at this scale.  No claim beyond
    the scanned limit is made.

    One pass over the offsets D_q = A_q - q decides every c: the scan of
    t + c as a ceiling stops at the first point whose prefix maximum of D
    exceeds c (as a floor, whose prefix minimum falls below c), and its
    witnesses are the earlier points with D_q = c.
    """
    if src.domain.kind == "naturals_from_2":
        raise ValueError("linear-family rejection runs on prime-based domains")
    points = [(pt.q, count) for pt, count in src.values()]
    offsets = [count - q for q, count in points]
    highest = list(accumulate(offsets, max))
    negated_lowest = list(accumulate((-d for d in offsets), max))
    positions = defaultdict(list)
    for i, d in enumerate(offsets):
        positions[d].append(i)

    def verdict(mode: str, c: int, stop: int) -> Verdict:
        hits = positions.get(c, [])
        witnesses = [points[i][0] for i in hits[: bisect_left(hits, stop)]]
        violation = None
        if stop < len(points):
            n, count = points[stop]
            violation = Violation(n, count, _value_descriptor(PuiseuxPoly.linear(c), n))
        return _verdict(src, mode, witness_threshold, witnesses, violation)

    return [
        LinearCandidateReport(
            c=c,
            ceiling=verdict("ceiling", c, bisect_right(highest, c)),
            floor=verdict("floor", c, bisect_right(negated_lowest, -c)),
        )
        for c in range(c_lo, c_hi + 1)
    ]


@dataclass(frozen=True)
class SearchReport:
    ceiling: tuple[PuiseuxPoly, ...]
    floor: tuple[PuiseuxPoly, ...]
    ceiling_ambiguous: bool  # >1 survivor: scanned limit too small to separate
    floor_ambiguous: bool
    candidates_tested: int
    scanned_limit: int
    witness_threshold: int


def _offset_dtype(counts: list[int], q_max: int, coeff_lo: int, coeff_hi: int, degree: int):
    """int64 when no offset A_q - rest(q), and no partial sum of one, can
    reach 2^62; otherwise object (Python ints), so that no value wraps."""
    reach = max(abs(coeff_lo), abs(coeff_hi)) * sum(q_max**k for k in range(1, degree + 1))
    return np.int64 if max(map(abs, counts), default=0) + reach < 2**62 else object


def search_polynomial(
    src: SequenceSource,
    degree: int,
    coeff_lo: int,
    coeff_hi: int,
    witness_threshold: int = 3,
) -> SearchReport:
    """Exhaustively verify every integer-coefficient polynomial of degree at
    most `degree` with coefficients in [coeff_lo, coeff_hi].

    At a sufficient limit at most one candidate per mode can survive (two
    verified envelopes of the same kind would have to cross infinitely
    often); several survivors are reported with the ambiguity flag set.

    The offsets D_q = A_q - rest(q) of a tuple of higher coefficients decide
    every constant term c: c + rest is verified as a ceiling exactly when
    c >= max D and #{q : D_q = c} reaches the threshold, and as a floor
    exactly when c <= min D and the same count does.  The tuples are taken
    in blocks, one row of offsets each, of at most SEARCH_BLOCK_ENTRIES
    entries; one bincount over a block gives every row's count of every c.
    """
    if degree < 0 or degree > 3:
        raise ValueError("search supports degrees 0..3")
    width = coeff_hi - coeff_lo + 1
    if width < 1 or width ** (degree + 1) > 10**6:
        raise ValueError("coefficient box too large (limit 10^6 combinations)")
    points = src.values()
    counts = [count for _, count in points]
    qs = [pt.q for pt, _ in points]
    dtype = _offset_dtype(counts, max(qs, default=0), coeff_lo, coeff_hi, degree)
    a = np.array(counts, dtype=dtype)
    powers = np.array([[q**k for q in qs] for k in range(1, degree + 1)], dtype=dtype)
    constants = np.arange(coeff_lo, coeff_hi + 1)
    tuples = width**degree
    block = max(1, SEARCH_BLOCK_ENTRIES // max(len(points), width, 1))
    ceilings: list[tuple[int, ...]] = []
    floors: list[tuple[int, ...]] = []
    for start in range(0, tuples, block):
        index = np.arange(start, min(start + block, tuples))
        rows = len(index)
        # row r: the (start + r)-th tuple of itertools.product(box, repeat=degree)
        higher = np.array(
            [coeff_lo + index // width ** (degree - k) % width for k in range(1, degree + 1)],
            dtype=np.int64,
        ).reshape(degree, rows).T
        offsets = np.tile(a, (rows, 1))
        for k in range(degree):
            offsets -= higher[:, k : k + 1].astype(dtype) * powers[k]
        top = offsets.max(axis=1, initial=coeff_lo)
        bottom = offsets.min(axis=1, initial=coeff_hi)
        inside = (offsets >= coeff_lo) & (offsets <= coeff_hi)
        row_of, _ = np.nonzero(inside)
        slots = row_of * width + (offsets[inside] - coeff_lo).astype(np.int64)
        enough = np.bincount(slots, minlength=rows * width).reshape(rows, width) >= witness_threshold
        higher_rows = higher.tolist()
        for survivors, ok in (
            (ceilings, enough & (constants >= top[:, None])),
            (floors, enough & (constants <= bottom[:, None])),
        ):
            rows_ok, constants_ok = np.nonzero(ok)
            survivors += [
                (coeff_lo + j, *higher_rows[r]) for r, j in zip(rows_ok.tolist(), constants_ok.tolist())
            ]

    def polys(survivors: list[tuple[int, ...]]) -> tuple[PuiseuxPoly, ...]:
        # sorted tuples are the order in which itertools.product lists candidates
        return tuple(PuiseuxPoly([(c, k) for k, c in enumerate(t)]) for t in sorted(survivors))

    return SearchReport(
        ceiling=polys(ceilings),
        floor=polys(floors),
        ceiling_ambiguous=len(ceilings) > 1,
        floor_ambiguous=len(floors) > 1,
        candidates_tested=width ** (degree + 1),
        scanned_limit=src.domain.limit,
        witness_threshold=witness_threshold,
    )
