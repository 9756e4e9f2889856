"""Empirical ceiling/floor verification over finite count domains.

"Bounds the sequence and attains it infinitely often" is operationalized as:
the bound holds at every point up to the domain limit, and equality holds at
at least witness_threshold points.  Every verdict records the scanned limit,
the threshold and the excluded primes, so a 'verified' is always a statement
about a declared finite scan, never a proof.

An ordinary candidate f = (c + rest)/L (integer exponents; c, L integers) is
decided exactly from the offsets D_q = L*A_q - rest(q) by _decide.  Only
fractional exponents are scanned point by point, through the certified
floor/ceil of the puiseux module: an integer A <= f(n) iff A <= floor(f(n)).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
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

# Most candidates one search_polynomial box or reject_linear_family range holds.
MAX_CANDIDATES = 10**6


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


def _offset_dtype(counts: list[int], q_max: int, coeff_lo: int, coeff_hi: int, degree: int, scale: int = 1):
    """int64 when no offset scale*A_q - rest(q), and no partial sum of one,
    can reach 2^62; otherwise object (Python ints), so that no value wraps."""
    reach = max(abs(coeff_lo), abs(coeff_hi)) * sum(q_max**k for k in range(1, degree + 1))
    return np.int64 if scale * max(map(abs, counts), default=0) + reach < 2**62 else object


def _offsets(src: SequenceSource, higher, scale: int = 1) -> np.ndarray:
    """The rows scale*A_q - sum_k h_k q^k over the points of src, one for each
    row (h_1, ..., h_degree) of the 2-d `higher`."""
    points = src.values()
    counts = [count for _, count in points]
    qs = [pt.q for pt, _ in points]
    degree = np.shape(higher)[1]
    h_max = max(map(abs, np.ravel(higher).tolist()), default=0)
    dtype = _offset_dtype(counts, max(qs, default=0), -h_max, h_max, degree, scale)
    powers = np.array(qs, dtype=dtype) ** np.arange(1, degree + 1)[:, None]  # row k - 1: q^k
    offsets = np.array(higher, dtype=dtype) @ -powers
    offsets += np.array(counts, dtype=dtype) * scale
    return offsets


def _decide(
    src: SequenceSource,
    mode: str,
    witness_threshold: int,
    offsets: np.ndarray,
    c: int,
    scale: int,
    puiseux_mode: bool,
) -> Verdict:
    """The verdict for f = (c + rest)/scale from the offsets
    D_q = scale*A_q - rest(q) of src's points.  The bound fails at the first
    D_q > c (ceiling) or D_q < c (floor); before it a witness is D_q = c, or
    in puiseux mode c - scale < D_q (ceiling) or D_q < c + scale (floor)."""
    fails = offsets > c if mode == "ceiling" else offsets < c
    stop = int(fails.argmax()) if fails.any() else len(offsets)
    window = scale if puiseux_mode else 1
    head = offsets[:stop]
    hits = head > c - window if mode == "ceiling" else head < c + window
    points = src.values()
    witnesses = [points[i][0].q for i in np.flatnonzero(hits).tolist()]
    violation = None
    if stop < len(points):
        pt, count = points[stop]
        value = Fraction(scale * count - int(offsets[stop]) + c, scale)
        violation = Violation(pt.q, count, str(value))
    return _verdict(src, mode, witness_threshold, witnesses, violation, puiseux_mode)


def _scan(
    f: PuiseuxPoly,
    src: SequenceSource,
    mode: str,
    witness_threshold: int,
    puiseux_mode: bool,
) -> Verdict:
    if puiseux_mode and not f.value_at_one()[1]:
        verdict = _verdict(src, mode, witness_threshold, puiseux_mode=True)
        return replace(verdict, status=NON_INTEGRAL_AT_ONE)
    if f.is_ordinary:
        _, scale, terms, top = f._compiled  # f(q) = (1/scale) sum a q^n
        coeffs = {n: a for a, n in terms}
        higher = [[coeffs.get(k, 0) for k in range(1, top + 1)]]
        offsets = _offsets(src, higher, scale)[0]
        return _decide(src, mode, witness_threshold, offsets, coeffs.get(0, 0), scale, puiseux_mode)

    # fractional exponents: the certified floor/ceil at each point
    ceiling = mode == "ceiling"
    rounded, other = (f.floor_eval, f.ceil_eval) if ceiling else (f.ceil_eval, f.floor_eval)
    witnesses: list[int] = []
    for pt, count in src.values():
        n = pt.q
        r = rounded(n)
        if count > r if ceiling else count < r:  # the bound fails at n
            lo, hi, den = f._bounds(n, 64)
            violation = Violation(n, count, f"[{lo / den:.6f}, {hi / den:.6f}]")
            return _verdict(src, mode, witness_threshold, witnesses, violation, puiseux_mode)
        # outside puiseux mode a witness is f(n) = count, so both roundings meet it
        if r == count and (puiseux_mode or other(n) == count):
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

    _decide reads both verdicts of every c from the offsets D_q = A_q - q.
    """
    if src.domain.kind == "naturals_from_2":
        raise ValueError("linear-family rejection runs on prime-based domains")
    if c_hi - c_lo + 1 > MAX_CANDIDATES:
        raise ValueError(f"c range too large (limit {MAX_CANDIDATES:,} values)")
    offsets = _offsets(src, [[1]])[0]
    return [
        LinearCandidateReport(
            c=c,
            ceiling=_decide(src, "ceiling", witness_threshold, offsets, c, 1, False),
            floor=_decide(src, "floor", witness_threshold, offsets, c, 1, False),
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

    Each tuple of higher coefficients is one row of _offsets, and by the rule
    of _decide its offsets D_q = A_q - rest(q) settle every constant term c:
    c + rest is a ceiling when c >= max D, a floor when c <= min D, and
    either needs #{q : D_q = c} to reach the threshold.  One bincount counts
    those witnesses for a block of at most SEARCH_BLOCK_ENTRIES offsets.
    """
    if degree < 0 or degree > 3:
        raise ValueError("search supports degrees 0..3")
    width = coeff_hi - coeff_lo + 1
    if width < 1 or width ** (degree + 1) > MAX_CANDIDATES:
        raise ValueError(f"coefficient box too large (limit {MAX_CANDIDATES:,} combinations)")
    constants = np.arange(coeff_lo, coeff_hi + 1)
    tuples = width**degree
    block = max(1, SEARCH_BLOCK_ENTRIES // max(len(src.values()), width, 1))
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
        offsets = _offsets(src, higher)
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
