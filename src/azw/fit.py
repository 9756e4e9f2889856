"""Empirical ceiling/floor verification over finite count domains.

"Bounds the sequence and attains it infinitely often" is operationalized as:
the bound holds at every point up to the domain limit, and equality holds at
at least witness_threshold points.  Every verdict records the scanned limit,
the threshold and the excluded primes, so a 'verified' is always a statement
about a declared finite scan, never a proof.

_compile writes a candidate in integers, once per scan.  An ordinary
candidate f = (c + rest)/L (integer exponents; c, L integers) is decided
exactly from the offsets D_q = L*A_q - rest(q) by _decide, and one with
exponent denominator 2 from such offsets less one exact integer square root
per point (_roots); its violation prints _interval, the scalar form of that
root taken 64 bits deeper.  Envelopes of Frobenius eigenvalues, of absolute
value q^(w/2), have exponents in (1/2)Z, and a candidate with a larger
exponent denominator is refused.  The offsets hold one power of q for each
nonzero term of f, and a candidate whose top term is too large to write
down at the domain's largest q (MAX_TERM_BITS) is refused too.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .arith import DomainPoint, PrimePowerDomain
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

# Most bits a verified candidate's top term t^e may take at the domain's largest
# q, counted as e * bit_length(q); a larger term is refused, since every offset
# would be a number of that size.
MAX_TERM_BITS = 1 << 16


@dataclass(frozen=True)
class SequenceSource:
    """Deterministic integer sequence over a count domain.

    fn maps a DomainPoint to the count A_q.  The counts are computed once,
    over the domain's points, when the source is built, and held as one
    array (int64, or Python ints when some |A_q| reaches 2^62) with their
    bound max |A_q|, so that many candidates can be checked against one sweep.
    """

    label: str
    domain: PrimePowerDomain
    fn: Callable[[DomainPoint], int]
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    bound: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = [self.fn(pt) for pt in self.domain.points]
        bound = max(map(abs, counts), default=0)
        object.__setattr__(self, "counts", np.array(counts, dtype=np.int64 if bound < 2**62 else object))
        object.__setattr__(self, "bound", bound)

    def values(self) -> list[tuple[DomainPoint, int]]:
        return list(zip(self.domain.points, self.counts.tolist()))


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


def _offset_dtype(bound: int, q_max: int, h_max: int, exponents, scale: int = 1, odd=()):
    """int64 when no offset scale*A_q - sum_i h_i q^(k_i) with |A_q| <= bound,
    |h_i| <= h_max and k_i in exponents, and no partial sum of one, can reach
    2^62, nor P(q)^2 q for P(t) = sum a t^k over the pairs (a, k) of odd (whose
    root, below 2^31, keeps every offset below 2^63); otherwise object (Python
    ints)."""
    reach = h_max * sum(q_max**k for k in exponents)
    square = sum(abs(a) * q_max**k for a, k in odd) ** 2 * q_max
    return np.int64 if max(scale * bound + reach, square) < 2**62 else object


def _roots(qs: np.ndarray, odd) -> np.ndarray:
    """floor(y) + ceil(y) for y = P(q) sqrt(q), P(t) = sum a t^k over the
    pairs (a, k) of odd: 2y at integer y, odd where y, and so f(q), is
    irrational and cannot equal a count.  floor(|y|) = isqrt(P(q)^2 q); in
    int64, a float sqrt, corrected by one at and above 2^52."""
    p = sum(a * qs**k if k else a for a, k in odd)  # a constant P stays an int
    square = p * p * qs
    if qs.dtype == object:
        root = np.array([math.isqrt(v) for v in square.tolist()], dtype=object)
    else:
        root = np.sqrt(square.astype(np.float64)).astype(np.int64)
        # below 2^52 the square is exact in a float and its rounded sqrt
        # stays under the next integer root, so it floors to isqrt already
        if square.max(initial=0) >= 2**52:
            root -= root * root > square
            root += (root + 1) * (root + 1) <= square
    both = 2 * root + (root * root != square).astype(qs.dtype)
    return np.where(p < 0, -both, both)


def _offsets(src: SequenceSource, exponents, rows, scale: int = 1, odd=()) -> np.ndarray:
    """The rows scale*A_q - sum_i h_i q^(k_i) over the points of src, one for
    each row (h_1, h_2, ...) of the 2-d `rows`, k_i the i-th of `exponents`,
    less _roots(q, odd)."""
    qs = src.domain.qs
    h_max = max(map(abs, np.ravel(rows).tolist()), default=0)
    # q_max is 1 on an empty domain, so that a coefficient past int64 takes the object path
    dtype = _offset_dtype(src.bound, int(qs.max(initial=1)), h_max, exponents, scale, odd)
    qs = qs.astype(dtype, copy=False)
    powers = qs ** np.array(exponents, dtype=np.int64)[:, None]  # row i: q^(k_i)
    offsets = np.array(rows, dtype=dtype) @ -powers
    offsets += src.counts.astype(dtype, copy=False) * scale
    if odd:
        offsets -= _roots(qs, odd)
    return offsets


def _decide(
    src: SequenceSource,
    mode: str,
    witness_threshold: int,
    offsets: np.ndarray,
    c: int,
    scale: int,
    puiseux_mode: bool,
    interval: Optional[Callable[[int], tuple[int, int, int]]] = None,
) -> Verdict:
    """The verdict for f = (c + rest)/scale from the offsets
    D_q = scale*A_q - rest(q) of src's points.  The bound fails at the first
    D_q > c (ceiling) or D_q < c (floor); before it a witness is D_q = c, or
    in puiseux mode c - scale < D_q (ceiling) or D_q < c + scale (floor).
    A violation gives f's exact value, or the ends lo/den, hi/den that
    interval(n) gives at its point."""
    fails = offsets > c if mode == "ceiling" else offsets < c
    stop = int(fails.argmax()) if fails.any() else len(offsets)
    window = scale if puiseux_mode else 1
    head = offsets[:stop]
    hits = head > c - window if mode == "ceiling" else head < c + window
    qs = src.domain.qs
    witnesses = qs[:stop][hits].tolist()
    violation = None
    if stop < len(offsets):
        n, count = int(qs[stop]), int(src.counts[stop])
        if interval is None:
            value = str(Fraction(scale * count - int(offsets[stop]) + c, scale))
        else:
            lo, hi, den = interval(n)
            value = f"[{_decimal(lo, den)}, {_decimal(hi, den)}]"
        violation = Violation(n, count, value)
    return _verdict(src, mode, witness_threshold, witnesses, violation, puiseux_mode)


def _compile(f: PuiseuxPoly):
    """f's integer form (d, L, ((A_n, n), ...), N): f(q) = (1/L) sum A_n q^(n/d)
    with n descending from the top N, d and L the least common denominators of
    the exponents and of the coefficients ((1, 1, (), 0) for f = 0)."""
    d = math.lcm(*[e.denominator for _, e in f.terms])
    lcd = math.lcm(*[c.denominator for c, _ in f.terms])
    ints = tuple([(c.numerator * (lcd // c.denominator), e.numerator * (d // e.denominator)) for c, e in f.terms])
    return d, lcd, ints, ints[0][1] if ints else 0


def _scan(
    f: PuiseuxPoly,
    src: SequenceSource,
    mode: str,
    witness_threshold: int,
    puiseux_mode: bool,
) -> Verdict:
    d, scale, terms, top = _compile(f)  # f(q) = (1/scale) sum a q^(n/d), n descending
    if d > 2:
        e = next(e for _, e in f.terms if e.denominator > 2)
        raise ValueError(
            f"candidate term t^{{{e}}} has exponent denominator {e.denominator}:"
            " fit decides exponents in (1/2)Z only"
        )
    if puiseux_mode and sum(a for a, _ in terms) % scale:  # f(1) is not an integer
        verdict = _verdict(src, mode, witness_threshold, puiseux_mode=True)
        return replace(verdict, status=NON_INTEGRAL_AT_ONE)
    q_max = int(src.domain.qs.max(initial=1))
    if top * q_max.bit_length() > d * MAX_TERM_BITS:
        e = f.terms[0][1]
        raise ValueError(f"candidate term t^{{{e}}} at q = {q_max} exceeds the limit of {MAX_TERM_BITS:,} bits")
    c = terms[-1][0] if terms and terms[-1][1] == 0 else 0
    if d == 1:
        higher = [(a, n) for a, n in terms if n]
        offsets = _offsets(src, [n for _, n in higher], [[a for a, _ in higher]], scale)[0]
        return _decide(src, mode, witness_threshold, offsets, c, scale, puiseux_mode)
    # f = (c + R(q) + P(q) sqrt(q))/L, decided on 2(L*A_q - R(q)) - _roots at 2c, 2L
    even = [(2 * a, n // 2) for a, n in terms if n and n % 2 == 0]
    odd = [(a, n // 2) for a, n in terms if n % 2]
    offsets = _offsets(src, [k for _, k in even], [[a for a, _ in even]], 2 * scale, odd)[0]
    interval = partial(_interval, terms, scale)
    return _decide(src, mode, witness_threshold, offsets, 2 * c, 2 * scale, puiseux_mode, interval)


def _interval(terms, scale: int, n: int) -> tuple[int, int, int]:
    """Integers lo, hi, den with lo/den <= f(n) <= hi/den and hi - lo <= 1,
    for f(q) = (1/scale) sum a q^(k/2) over the pairs (a, k) of terms.
    f(n) = (W + y)/scale, W the sum of the terms of even k and y = P(n) sqrt(n)
    that of the others; one isqrt of P(n)^2 n 4^64, the scalar form of
    _roots, is floor(|y| 2^64), and lo == hi where it is exact."""
    whole = sum(a * n ** (k // 2) for a, k in terms if k % 2 == 0) << 64
    p = sum(a * n ** (k // 2) for a, k in terms if k % 2)
    square = p * p * n << 128
    y_lo = math.isqrt(square)
    y_hi = y_lo + (y_lo * y_lo != square)
    if p < 0:
        y_lo, y_hi = -y_hi, -y_lo
    return whole + y_lo, whole + y_hi, scale << 64


def _decimal(num: int, den: int) -> str:
    """num/den (den > 0) to six decimals, rounded half to even in integers; a
    negative value keeps its sign at 0, as a float's text does.  Unlike a
    float, it neither overflows nor rounds a large value to 53 bits first."""
    units, rest = divmod(abs(num) * 2_000_000 + den, 2 * den)  # floor(|num|/den * 10^6 + 1/2)
    if not rest and units & 1:  # a tie, rounded up to an odd last digit
        units -= 1
    return ("-%d.%06d" if num < 0 else "%d.%06d") % divmod(units, 1_000_000)


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


def check_c_range(c_lo: int, c_hi: int) -> None:
    """Refuse a reject_linear_family range of more than MAX_CANDIDATES values;
    a caller may run it before building the source, which counts every point."""
    if c_hi - c_lo + 1 > MAX_CANDIDATES:
        raise ValueError(f"c range too large (limit {MAX_CANDIDATES:,} values)")


def check_box(degree: int, coeff_lo: int, coeff_hi: int) -> None:
    """Refuse a search_polynomial degree or box it does not run (see check_c_range)."""
    if degree < 0 or degree > 3:
        raise ValueError("search supports degrees 0..3")
    width = coeff_hi - coeff_lo + 1
    if width < 1 or width ** (degree + 1) > MAX_CANDIDATES:
        raise ValueError(f"coefficient box too large (limit {MAX_CANDIDATES:,} combinations)")


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

    Every verdict is _decide's on the offsets D_q = A_q - q, read for all c
    from their running max and min (see _linear_verdicts).
    """
    check_c_range(c_lo, c_hi)
    offsets = _offsets(src, [1], [[1]])[0].tolist()
    ceiling = _linear_verdicts(src, "ceiling", witness_threshold, offsets, 1)
    floor = _linear_verdicts(src, "floor", witness_threshold, offsets, -1)
    return [LinearCandidateReport(c, ceiling(c), floor(c)) for c in range(c_lo, c_hi + 1)]


def _linear_verdicts(src: SequenceSource, mode: str, witness_threshold: int, offsets: list, sign: int):
    """The function c -> _decide's verdict on t + c from the offsets
    D_q = A_q - q, with sign 1 for the ceiling and -1 for the floor, which is
    the ceiling of the offsets -D_q at -c.  With M the running max of sign*D,
    the bound fails at the first point where M exceeds sign*c, and its
    witnesses are the points before it where sign*D_q = M_q = sign*c."""
    qs, counts = src.domain.qs.tolist(), src.counts.tolist()
    signed = [sign * x for x in offsets]
    top = list(accumulate(signed, max))
    records = [i for i, (x, m) in enumerate(zip(signed, top)) if x == m]
    levels = [top[i] for i in records]  # non-decreasing, as top is

    def verdict(c: int) -> Verdict:
        level = sign * c
        stop = bisect_right(top, level)
        witnesses = [qs[i] for i in records[bisect_left(levels, level) : bisect_right(levels, level)]]
        violation = None
        if stop < len(top):
            violation = Violation(qs[stop], counts[stop], str(counts[stop] - offsets[stop] + c))
        return _verdict(src, mode, witness_threshold, witnesses, violation)

    return verdict


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
    check_box(degree, coeff_lo, coeff_hi)
    width = coeff_hi - coeff_lo + 1
    constants = np.arange(coeff_lo, coeff_hi + 1)
    tuples = width**degree
    block = max(1, SEARCH_BLOCK_ENTRIES // max(len(src.counts), width, 1))
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
        offsets = _offsets(src, range(1, degree + 1), higher)
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
