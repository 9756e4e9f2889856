"""Elliptic curves y^2 = x^3 + ax + b over the rationals: exact counts over
prime fields and their extensions, local zeta data, supersingular detection,
and the champion/trailing prime census.

The Frobenius trace a_p = p + 1 - #E(F_p) comes from one of three paths,
chosen by the curve and by p:
  - ab = 0 (complex multiplication, j = 0 or 1728): a closed form from
    Cornacchia's p = x^2 + y^2 or x^2 + 3y^2 and the quartic or sextic
    residue symbol of the coefficient, O(log p) steps per prime;
  - otherwise, p <= BSGS_MIN_P: the quadratic-character sum
        #E(F_p) = p + 1 + sum_x chi(x^3 + ax + b),
    O(p) work on a numpy residue table;
  - otherwise, p > BSGS_MIN_P: a baby-step giant-step search for the group
    order in the Hasse interval, O(p^(1/4)) group operations, accepted
    only when the order is certified unique (Mestre); otherwise the
    character sum.
The closed form and the baby-step giant-step search are numpy kernels over a
batch of primes: one lane per prime for the closed form, one per prime and
point, in Jacobian coordinates, for the search.  A lane is an int32 while
p < 2^15, an int64 while p < 2^31 and a Python int above (`_lane_dtype`).
Their cost per call is mostly fixed (a batch of one costs about 0.3 ms on a
CM curve, and 1 to 2.5 ms on the others for p from 10^3 to 10^6), so callers
that need many traces ask for them at once: `census` and `count_source` ask
for all their primes in one batch, a `TraceTable` holds one batch for loops
over primes, and `EllipticCurve.trace` is an uncached batch of one.
The character sum stays the reference that the tests compare the other two
paths against.
Counts over F_{p^m} follow from the trace recursion
    a_1 = a_p,  a_k = a_p*a_{k-1} - p*a_{k-2},  #E(F_{p^m}) = p^m + 1 - a_m.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from . import fit
from .arith import (
    PrimePowerDomain,
    build_field,
    check_excluded,
    factorize,
    is_prime,
    is_prime_power,
    isqrt,
    sieve,
)
from .puiseux import PuiseuxPoly

CHAMPION = "champion"
TRAILING = "trailing"
SUPERSINGULAR = "supersingular"
OTHER = "other"


@dataclass(frozen=True)
class EllipticCurve:
    """Short Weierstrass curve with integer coefficients and nonzero
    discriminant; counting is only offered away from the bad primes.  Equal
    (a, b) make equal curves, whatever their labels."""

    a: int
    b: int
    label: str = field(default="", compare=False)
    disc: int = field(init=False, repr=False, compare=False)
    bad_primes: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", int(self.a))
        object.__setattr__(self, "b", int(self.b))
        disc = -16 * (4 * self.a**3 + 27 * self.b**2)
        if disc == 0:
            raise ValueError(f"singular curve: a={self.a}, b={self.b}")
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "bad_primes", frozenset({2, 3} | {p for p, _ in factorize(disc)}))
        object.__setattr__(self, "label", self.label or self._default_label())

    def _default_label(self) -> str:
        out = "y^2=x^3"
        if self.a:
            coeff = {1: "+", -1: "-"}.get(self.a, f"{self.a:+d}")
            out += f"{coeff}x"
        if self.b:
            out += f"{self.b:+d}"
        return out

    def __repr__(self):
        return f"EllipticCurve({self.label})"

    def check_good(self, p: int) -> None:
        if p in self.bad_primes or not is_prime(p):
            raise ValueError(f"p={p} is not a good prime for {self.label}")

    def trace(self, p: int) -> int:
        """Frobenius trace a_p = p + 1 - #E(F_p), computed on every call."""
        self.check_good(p)
        return _traces(self.a, self.b, [p])[0]


@dataclass(frozen=True)
class TraceTable:
    """The traces a_p of one curve at primes its caller has checked good,
    computed in one `_traces` batch when the table is made.  `trace(p)`
    reads the table, so `classify_prime`, `count_extension`,
    `is_supersingular`, `local_zeta` and `maximal_minimal_check` take a
    table where they take a curve: a loop over many primes, or over m at
    one prime, then computes each a_p once."""

    label: str
    by_prime: dict[int, int]

    @classmethod
    def of(cls, curve: EllipticCurve, primes: list[int]) -> TraceTable:
        return cls(curve.label, dict(zip(primes, _traces(curve.a, curve.b, primes))))

    def trace(self, p: int) -> int:
        return self.by_prime[p]


def _traces(a: int, b: int, primes: list[int]) -> list[int]:
    """a_p at each of the primes, which the caller has checked to be good."""
    if a * b == 0:
        ts = _traces_cm(a, b, primes)
    else:
        big = [p for p in primes if p > BSGS_MIN_P]
        found = dict(zip(big, _trace_bsgs(a, b, big))) if big else {}
        ts = [found.get(p) for p in primes]
        ts = [_trace_char_sum(a, b, p) if t is None else t for p, t in zip(primes, ts)]
    for p, t in zip(primes, ts):
        if t * t > 4 * p:  # Hasse bound; a violation means a counting bug
            raise RuntimeError(f"trace {t} violates the Hasse bound at p={p}")
    return ts


def _trace_char_sum(a: int, b: int, p: int) -> int:
    # chi table over residues: 1 on nonzero squares, -1 otherwise, 0 at 0
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    half = x[1 : (p + 1) // 2]
    chi[(half * half) % p] = 1
    rhs = ((x * x % p) * x + (a % p) * x + (b % p)) % p
    return -int(chi[rhs].sum(dtype=np.int64))


# Primes per pass of the closed form: bounds its arrays, so peak memory does
# not grow with the batch; a census to 25000 is one pass.
CM_BLOCK_LANES = 1 << 14


def _traces_cm(a: int, b: int, primes: list[int]) -> list[int]:
    """a_p of y^2 = x^3 + ax (b = 0) or y^2 = x^3 + b (a = 0) at good primes,
    one numpy lane per prime, CM_BLOCK_LANES primes at a time, each pass in
    the lane word of its largest prime (`_lane_dtype`).

    Ireland-Rosen, ch. 18, Thms 4-5.  j = 1728: a_p = 0 for p = 3 mod 4;
    otherwise p = pi conj(pi) with pi = x + yi primary (x + y = 1 mod 4,
    y even) and a_p = 2 Re(conj(chi) pi), chi = (-a/pi)_4.  j = 0: a_p = 0
    for p = 2 mod 3; otherwise pi = u + vw (w^2 + w + 1 = 0) primary
    (u = 2, v = 0 mod 3) and a_p = -Tr(conj(chi) pi), chi = (4b/pi)_6.
    The symbol is read in F_p = Z[i]/pi or Z[w]/pi, where i or w maps to
    the root of unity r with pi(r) = 0.
    """
    k = 4 if b == 0 else 3
    coeff = -a if b == 0 else 4 * b
    out: list[int] = []
    for start in range(0, len(primes), CM_BLOCK_LANES):
        block = primes[start : start + CM_BLOCK_LANES]
        p = np.array(block, dtype=_lane_dtype(max(block)))
        t = np.zeros_like(p)
        lanes = np.flatnonzero(p % k == 1)  # a_p = 0 on the others
        t[lanes] = _cm_lanes(p[lanes], coeff, k)
        out += t.tolist()
    return out


def _cm_lanes(p, coeff: int, k: int):
    """a_p on lanes with p = 1 mod k, where coeff is -a (k = 4) or 4b (k = 3)."""
    c = np.array([coeff % q for q in p.tolist()], dtype=p.dtype)
    r = _roots_of_unity(p, k)
    if k == 4:
        x, y = _cornacchia(p, 1, r)
        x, y = np.where(x % 2 == 0, y, x), np.where(x % 2 == 0, x, y)
        sign = np.where((x + y) % 4 == 1, 1, -1)
        x, y = sign * x, sign * y
        i = np.where((x + y * r) % p == 0, r, p - r)
        # chi = 1, i, -1, -i; then conj(chi) pi has real part x, y, -x, -y
        traces = [(1, 2 * x), (i, 2 * y), (p - 1, -2 * x), (p - i, -2 * y)]
        s = _pow(c, (p - 1) // 4, p)
    else:
        x, y = _cornacchia(p, 3, (2 * r + 1) % p)  # (2r + 1)^2 = -3
        u, v = x + y, 2 * y  # x + y sqrt(-3) = u + vw
        turn = np.flatnonzero(v % 3)
        while len(turn):
            u[turn], v[turn] = -v[turn], u[turn] - v[turn]  # the associate w pi
            turn = turn[v[turn] % 3 != 0]
        sign = np.where(u % 3 == 1, -1, 1)
        u, v = sign * u, sign * v
        w = np.where((u + v * r) % p == 0, r, p - 1 - r)
        # chi = +-1, +-w, +-w^2; then conj(chi) pi = +-pi, +-w^2 pi, +-w pi,
        # whose traces are 2u - v, 2v - u, -u - v
        w2 = w * w % p
        traces = [(1, v - 2 * u), (w, u - 2 * v), (w2, u + v)]
        traces += [(p - z, -t) for z, t in traces]
        s = _pow(c, (p - 1) // 6, p)
    t = np.zeros_like(p)
    found = np.zeros(len(p), dtype=bool)
    for z, tz in traces:
        hit = s == z
        t = np.where(hit, tz, t)
        found |= hit
    if not found.all():
        q = int(p[~found][0])
        raise RuntimeError(f"residue symbol {s[~found][0]} is no root of unity at p={q}")
    return t


def _roots_of_unity(p, k: int):
    """Per lane, a root of unity of order k (3 or 4) in F_p, p = 1 mod k:
    g^((p-1)/k) for the first g = 2, 3, 5, ... that gives one, tried only on
    the lanes still without one.  Only prime g are tried: a product of k-th
    powers is a k-th power, so the first g that gives a root is prime."""
    r = np.zeros_like(p)
    todo = np.arange(len(p))
    g = 2
    while len(todo):
        q = p[todo]
        if (q <= g).any():
            raise RuntimeError(f"no root of unity of order {k} mod {q[q <= g][0]}")
        rg = _pow(np.full(len(q), g, dtype=p.dtype), (q - 1) // k, q)
        ok = rg != 1 if k == 3 else rg * rg % q == q - 1
        r[todo[ok]] = rg[ok]
        todo = todo[~ok]
        g += 1
        while not is_prime(g):
            g += 1
    return r


def _cornacchia(p, d: int, r):
    """Per lane, (x, y) with x^2 + d y^2 = p, from a root r < p of -d mod p
    (Cohen, 1.5.2): Euclid's steps on (p, r), each lane until x^2 <= p."""
    prev, x = p.copy(), r.copy()
    k = np.flatnonzero(x * x > p)
    while len(k):
        prev[k], x[k] = x[k], prev[k] % x[k]
        k = k[x[k] * x[k] > p[k]]
    y2 = p - x * x
    y = np.array([math.isqrt(v) for v in (y2 // d).tolist()], dtype=p.dtype)
    bad = (y2 % d != 0) | (d * y * y != y2)
    if bad.any():
        raise RuntimeError(f"Cornacchia found no x^2 + {d}y^2 = {p[bad][0]}")
    return x, y


# Crossover: above this prime a batched baby-step giant-step trace costs less
# than the character sum (timed on whole batches, every good prime to 5000
# and to 25000; see CHANGES.md).  It must stay above 229, below which
# Mestre's uniqueness can fail.
BSGS_MIN_P = 500
BSGS_POINTS = 32  # x = 0..31 are tried before falling back to the character sum
# Bytes of lane words per pass of the kernel: bounds its (steps x lanes)
# arrays, so peak memory does not grow with the batch.  A pass holds 1024
# int32 lanes, or 512 int64 or Python-int lanes.
BSGS_BLOCK_BYTES = 4096


# The lane words of the kernels, and the primes below which the first two
# hold every intermediate: that is at most a sum of two products of residues,
# so it needs 2 p^2 below 2^31 (int32) or 2^63 (int64).  Python ints (dtype
# object) run the same code past that.
LANE_WORDS = (np.dtype(np.int32), np.dtype(np.int64), np.dtype(object))
WORD_LIMITS = (2**15, 2**31)


def _lane_dtype(p_max: int):
    """The narrowest lane word for residues mod primes up to p_max."""
    return LANE_WORDS[bisect.bisect_right(WORD_LIMITS, p_max)]


def _trace_bsgs(a: int, b: int, primes: list[int]) -> list[Optional[int]]:
    """a_p at each prime by a certified baby-step giant-step order search,
    or None where no tried point certifies it.

    For x = 0, 1, 2, ... with f = x^3 + ax + b nonzero mod p, the point
    (f x, f^2) lies on E_f: y^2 = x^3 + a f^2 x + b f^3, the quadratic twist
    of E by f, so no square root is needed.  E_f is E when f is a square and
    the nontrivial twist otherwise, hence a_p(E_f) = chi(f) a_p.  The true
    trace of E_f is always among the t with (p + 1 - t)P = O, so a t that is
    the only such one in the Hasse interval is certified.  For p > 229 some
    point of E or of its twist has a unique t (Mestre).

    One lane per prime and point.  The primes go through the kernel in
    rounds, in ascending order and split by lane word, each pass holding
    BSGS_BLOCK_BYTES of lanes.  The first round gives every prime one x,
    which certifies most of them.  Each later round gives each prime left
    its next few x at once, as many as fill a quarter of a pass between
    them (at least one): a pass costs a fixed part plus a share per lane
    (about 1.0 ms and 3 us on int32 near p = 5000), so a retry pass stays
    short, yet seldom leaves a prime for one more.  Python-int lanes try one
    x at a time, as there each lane costs its own time.  A prime goes on
    until BSGS_POINTS values of x are used up.
    """
    p_all = np.array(primes, dtype=object)
    am_all, bm_all = a % p_all, b % p_all
    x_all = np.zeros(len(primes), dtype=np.int64)  # the next x of each prime
    t_all = np.zeros(len(primes), dtype=np.int64)
    done = np.zeros(len(primes), dtype=bool)
    todo = np.argsort(p_all, kind="stable")
    retry = False
    while len(todo):
        for dtype, group in zip(LANE_WORDS, np.split(todo, np.searchsorted(p_all[todo], WORD_LIMITS))):
            if not len(group):
                continue
            lanes = BSGS_BLOCK_BYTES // dtype.itemsize
            tries = max(1, lanes // (4 * len(group))) if retry and dtype != object else 1
            for start in range(0, len(group), lanes // tries):
                block = group[start : start + lanes // tries]
                k = np.minimum(tries, BSGS_POINTS - x_all[block])
                owner = np.repeat(block, k)  # lane -> prime
                x = x_all[owner] + np.arange(len(owner)) - np.repeat(np.cumsum(k) - k, k)
                x_all[block] += k
                p, am, bm, x = (v.astype(dtype) for v in (p_all[owner], am_all[owner], bm_all[owner], x))
                f = (x * x % p * x + am * x + bm) % p
                live = np.flatnonzero(f != 0)
                if not len(live):
                    continue
                p, f, x, am, owner = p[live], f[live], x[live], am[live], owner[live]
                ff = f * f % p
                t, ok = _unique_traces(am * ff % p, f * x % p, ff, p)
                chi = _pow(f[ok], (p[ok] - 1) // 2, p[ok])
                t_all[owner[ok]] = np.where(chi == 1, t[ok], -t[ok])
                done[owner[ok]] = True
        todo = todo[~done[todo] & (x_all[todo] < BSGS_POINTS)]
        retry = True
    return [t if ok else None for t, ok in zip(t_all.tolist(), done.tolist())]


def _unique_traces(A, X, Y, p):
    """Per lane, the t in [-bound, bound], bound = floor(2 sqrt p), with
    (p + 1 - t)P = O, and whether it is the only one.

    P = (X, Y) lies on y^2 = x^3 + Ax + B over F_p (B is not needed); all
    four are arrays with one entry per lane.  One m = isqrt(max bound) + 1
    serves every lane.  Every t is i*s + j for one i and one |j| <= m,
    s = 2m + 1; then (p + 1 - i*s)P = jP, found by the x-coordinate of |j|P
    among the baby steps and its sign by y.  A lane is certified only when
    its baby steps P, ..., mP are distinct, none is O and none has y = 0
    (so every giant step matches at most one j), and exactly one t in its
    own Hasse interval qualifies.  Points are kept in Jacobian coordinates
    and normalized once, baby and giant steps together, by Montgomery's
    trick down each lane: one Fermat inverse per lane.

    The baby steps and sP take the unpatched `_jadd`.  On a lane that those
    checks pass, P has order at least s, so no sum among them has O or two
    equal points in it, and each is exact (sP itself may be O); on the
    other lanes they may be wrong.  The giant steps must be exact on every
    lane, since giant i is O wherever t = (i - top) s is a root of
    (p + 1 - t)P = O, for every point when it is the true trace.  So giant 0
    comes from the exact `_jmul`, giant 1 from an exact sum (giant 0 may be
    -sP), and after an O giant the next two are -sP and -2sP by selection;
    where sP = O every giant is giant 0.
    """
    lanes = len(p)
    bound = np.array([math.isqrt(4 * q) for q in p.tolist()])
    m = math.isqrt(int(bound.max())) + 1
    s = 2 * m + 1
    top = (int(bound.max()) + m) // s
    giants = 2 * top + 1
    pt = (X, Y, np.ones_like(X))
    xyz = np.empty((3, m + giants, lanes), dtype=p.dtype)
    xyz[:, 0] = pt
    q = _jdouble(pt, A, p)
    for j in range(1, m):  # row j: (j + 1)P
        xyz[:, j] = q
        q = _jadd(q, pt, A, p)
    step = _jadd(q, tuple(xyz[:, m - 1]), A, p)  # (m + 1)P + mP = sP
    back = (step[0], -step[1] % p, step[2])
    back2 = _jdouble(back, A, p)
    g = _jmul(p + 1 + top * s, xyz[:, :m], A, p)  # (p + 1 - i*s)P at i = -top
    xyz[:, m] = g
    was_o = np.zeros(0, dtype=np.int64)
    for i in range(m + 1, m + giants):  # row i: the giant step at i - m - top
        o = np.flatnonzero(g[2] == 0)
        g = _jadd(g, back, A, p, exact=i == m + 1)
        for c, c1, c2 in zip(g, back, back2):
            c[was_o] = c2[was_o]
            c[o] = c1[o]
        xyz[:, i] = g
        was_o = o
    stuck = np.flatnonzero(step[2] == 0)
    xyz[:, m + 1 :, stuck] = xyz[:, m : m + 1, stuck]
    x, y, z = xyz  # normalized in place: x = X/Z^2, y = Y/Z^3
    zero = z == 0
    z[zero] = 1
    _invert_rows(z, p)
    zz = z * z % p
    x *= zz
    x %= p
    zz *= z
    zz %= p
    y *= zz
    y %= p
    del zz

    # baby x keyed by lane: a sorted table, searched by every giant x; a key
    # is below lanes * p, so it fits the lane word
    lane = np.arange(lanes, dtype=p.dtype)
    width = int(p.max())
    table = (x[:m] + lane * width).ravel()
    order = np.argsort(table, kind="stable")  # less peak memory than the default here
    table = table[order]
    valid = ~(zero[:m].any(axis=0) | (y[:m] == 0).any(axis=0))
    valid[order[1:][table[1:] == table[:-1]] % lanes] = False
    gkeys = (x[m:] + lane * width).ravel()
    at = np.searchsorted(table, gkeys)
    at[at == len(table)] = 0
    gzero = zero[m:].ravel()
    hit = (table[at] == gkeys) & ~gzero
    cand = np.flatnonzero(hit | gzero)  # giant steps with a t, few per lane
    row = order[at[cand]]
    sign = np.where(y[:m].ravel()[row] == y[m:].ravel()[cand], 1, -1)
    glane = cand % lanes
    t = (cand // lanes - top) * s + np.where(hit[cand], sign * (row // lanes + 1), 0)
    keep = np.abs(t) <= bound[glane]
    count = np.bincount(glane[keep], minlength=lanes)
    trace = np.zeros(lanes, dtype=np.int64)
    trace[glane[keep]] = t[keep]
    return trace, valid & (count == 1)


def _jdouble(pt, A, p):
    """2 pt in Jacobian coordinates (x = X/Z^2, y = Y/Z^3; Z = 0 is O).
    Doubling O or a point with y = 0 gives Z = 0 by itself."""
    X, Y, Z = pt
    xx, yy = X * X % p, Y * Y % p
    zz = Z * Z % p
    s = 4 * X % p * yy % p
    m = (3 * xx + A * (zz * zz % p)) % p
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - 8 * (yy * yy % p)) % p
    return x3, y3, 2 * Y % p * Z % p


def _jadd(u, v, A, p, exact=False):
    """u + v in Jacobian coordinates, lane by lane.  The sum is right, and
    its Z nonzero, where u and v are points other than O with distinct x.
    Every other lane gets Z = 0: right for u = -v, and then kept by every
    later sum or double, so a chain of these steps is right on each lane
    that ends with Z != 0.  `exact` patches the lanes where u = O, v = O or
    u = v."""
    X1, Y1, Z1 = u
    X2, Y2, Z2 = v
    z1z1, z2z2 = Z1 * Z1 % p, Z2 * Z2 % p
    u1, u2 = X1 * z2z2 % p, X2 * z1z1 % p
    s1 = Y1 * (Z2 * z2z2 % p) % p
    s2 = Y2 * (Z1 * z1z1 % p) % p
    h, r = u2 - u1, s2 - s1  # in (-p, p): every product below stays < p^2
    hh = h * h % p
    hhh, w = h * hh % p, u1 * hh % p
    x3 = (r * r - hhh - 2 * w) % p
    out = (x3, (r * (w - x3) - s1 * hhh) % p, Z1 * Z2 % p * h % p)
    k = np.flatnonzero(out[2] == 0) if exact else ()
    if len(k):
        uk, vk = tuple(c[k] for c in u), tuple(c[k] for c in v)
        same = (h[k] == 0) & (r[k] == 0)
        for c, c1, c2, d in zip(out, uk, vk, _jdouble(uk, A[k], p[k])):
            c[k] = np.where(uk[2] == 0, c2, np.where(vk[2] == 0, c1, np.where(same, d, c[k])))
    return out


def _jmul(k, table, A, p):
    """k P lane by lane (k >= 1), by windows of w bits: w doublings, then one
    exact addition of dP = table[:, d - 1], where table holds P, 2P, ..., mP
    and 2^w - 1 <= m.  Each lane starts at dP of its own first nonzero
    window, not at O."""
    w = (table.shape[1] + 1).bit_length() - 1
    lane = np.arange(len(p))
    top = (int(np.max(k)).bit_length() - 1) // w * w
    out, started = None, None
    for shift in range(top, -1, -w):
        d = ((k >> shift) & ((1 << w) - 1)).astype(np.int64)
        dp = tuple(table[:, np.maximum(d - 1, 0), lane])
        if out is None:
            out, started = dp, d > 0
            continue
        for _ in range(w):
            out = _jdouble(out, A, p)
        plus = _jadd(out, dp, A, p, exact=True)
        out = tuple(np.where(started, np.where(d > 0, c1, c), c2) for c, c1, c2 in zip(out, plus, dp))
        started |= d > 0
    return out


def _pow(base, e, p):
    """base^e mod p lane by lane, by left-to-right square-and-multiply."""
    out = np.ones_like(base)
    for bit in range(int(np.max(e, initial=0)).bit_length() - 1, -1, -1):
        out = out * out % p
        out = np.where(e & (1 << bit), out * base % p, out)
    return out


def _invert_rows(z, p) -> None:
    """Replace each entry of a (rows, lanes) array with no zero entry by its
    inverse mod p: Montgomery's trick down each lane, one Fermat inverse per
    lane."""
    prefix = np.empty_like(z)
    prefix[0] = z[0]
    for r in range(1, len(z)):
        prefix[r] = prefix[r - 1] * z[r] % p
    inv = _pow(prefix[-1], p - 2, p)
    for r in range(len(z) - 1, 0, -1):
        inv, z[r] = inv * z[r] % p, inv * prefix[r - 1] % p
    z[0] = inv


def count_fp(curve: EllipticCurve, p: int) -> int:
    """#E(F_p) = p + 1 - a_p."""
    return p + 1 - curve.trace(p)


def trace_power(ap: int, p: int, m: int) -> int:
    """a_{p^m} from a_p by the two-term recursion (m >= 0); a_{p^0} = 2."""
    prev, cur = 2, ap
    for _ in range(m - 1):
        prev, cur = cur, ap * cur - p * prev
    return 2 if m == 0 else cur


def count_extension(curve: EllipticCurve, p: int, m: int) -> int:
    """#E(F_{p^m}) = p^m + 1 - a_{p^m}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return p**m + 1 - trace_power(curve.trace(p), p, m)


def count_extension_oracle(curve: EllipticCurve, p: int, m: int) -> int:
    """Projective count by exhaustive enumeration over an explicit F_{p^m}:
    affine solutions of y^2 = x^3 + ax + b, plus the point at infinity."""
    curve.check_good(p)
    fld = build_field(p, m)
    z = fld.elements()
    zz = fld.mul(z, z)
    squares = np.bincount(fld.code(zz), minlength=fld.order)
    rhs = fld.mul(zz, z)  # x^3 + ax + b, in place: a is a scalar of F_p
    rhs += curve.a % p * z
    rhs += fld.from_int(curve.b)
    rhs %= p
    return 1 + int(squares[fld.code(rhs)].sum())


def is_supersingular(curve: EllipticCurve, p: int) -> bool:
    """a_p = 0, i.e. #E(F_p) = p + 1 (good p >= 5 only)."""
    return curve.trace(p) == 0


@dataclass(frozen=True)
class LocalZeta:
    """Rational local zeta data: (1 - a_p T + p T^2) / ((1 - T)(1 - pT))."""

    p: int
    trace: int

    @property
    def numerator(self) -> tuple[int, int, int]:
        return (1, -self.trace, self.p)

    @property
    def supersingular(self) -> bool:
        return self.trace == 0


def local_zeta(curve: EllipticCurve, p: int) -> LocalZeta:
    return LocalZeta(p, curve.trace(p))


def classify_prime(curve: EllipticCurve, p: int) -> str:
    """champion: count hits the integer Hasse ceiling p+1+floor(2*sqrt(p));
    trailing: count hits the integer floor p+1-floor(2*sqrt(p)); the two
    cannot meet supersingular for p >= 5 since floor(2*sqrt(p)) >= 4."""
    ap = curve.trace(p)
    if ap == 0:
        return SUPERSINGULAR
    bound = isqrt(4 * p)
    if ap == -bound:
        return CHAMPION
    if ap == bound:
        return TRAILING
    return OTHER


@dataclass(frozen=True)
class CensusReport:
    curve_label: str
    x_max: int
    excluded: frozenset[int]
    rows: tuple[tuple[int, int, str], ...]  # (p, a_p, class), ascending p
    champion: tuple[int, ...]
    trailing: tuple[int, ...]
    supersingular: tuple[int, ...]
    main_term: float
    ratio_plus: float
    ratio_minus: float

    def counts(self) -> dict[str, int]:
        return {
            "champion": len(self.champion),
            "trailing": len(self.trailing),
            "supersingular": len(self.supersingular),
        }


def census(
    curve: EllipticCurve,
    x_max: int,
    excluded: Optional[Iterable[int]] = None,
) -> CensusReport:
    """Classify every good prime p <= x_max outside the excluded set, in
    ascending order.  The asymptotic ratios compare the extremal counts to
    (2/(3*pi)) * x^(3/4) / log(x); they are reported in floating point for
    inspection only.
    """
    if x_max < 10:
        raise ValueError("x_max must be >= 10")
    s = frozenset(excluded) if excluded is not None else curve.bad_primes
    if not curve.bad_primes <= s:
        raise ValueError("excluded set must contain the curve's bad primes")
    check_excluded(s - curve.bad_primes)
    # the sieve's primes outside s are good, so no primality test runs again
    primes = [p for p in sieve(x_max) if p not in s]
    table = TraceTable.of(curve, primes)
    rows = tuple((p, ap, classify_prime(table, p)) for p, ap in table.by_prime.items())
    champ = tuple(p for p, _, c in rows if c == CHAMPION)
    trail = tuple(p for p, _, c in rows if c == TRAILING)
    ss = tuple(p for p, _, c in rows if c == SUPERSINGULAR)
    main = (2 / (3 * math.pi)) * x_max**0.75 / math.log(x_max)
    return CensusReport(
        curve_label=curve.label,
        x_max=x_max,
        excluded=s,
        rows=rows,
        champion=champ,
        trailing=trail,
        supersingular=ss,
        main_term=main,
        ratio_plus=len(champ) / main,
        ratio_minus=len(trail) / main,
    )


@dataclass(frozen=True)
class MaxMinCheck:
    m: int
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class MaxMinReport:
    p: int
    k_max: int
    checks: tuple[MaxMinCheck, ...]
    first_failure: Optional[MaxMinCheck]

    @property
    def all_hold(self) -> bool:
        return self.first_failure is None


def maximal_minimal_check(curve: EllipticCurve, p: int, k_max: int) -> MaxMinReport:
    """For a supersingular p, verify that F_{p^(4k-2)} attains the upper
    Hasse-Weil bound p^m + 2p^(m/2) + 1 and F_{p^(4k)} the lower one, for
    k = 1..k_max; every count follows from the one a_p by the recursion."""
    ap = curve.trace(p)
    if ap != 0:
        raise ValueError(f"p={p} is not supersingular for {curve.label}")
    checks = tuple(
        MaxMinCheck(m, p**m + sign * 2 * p ** (m // 2) + 1, p**m + 1 - trace_power(ap, p, m))
        for k in range(1, k_max + 1)
        for m, sign in ((4 * k - 2, 1), (4 * k, -1))
    )
    first_bad = next((c for c in checks if not c.ok), None)
    return MaxMinReport(p, k_max, checks, first_bad)


@dataclass(frozen=True)
class HasseWeilBounds:
    q: int
    genus: int
    integer_lower: int
    integer_upper: int
    floor_candidate: PuiseuxPoly  # t - 2g t^(1/2) + 1, the real lower bound
    ceiling_candidate: PuiseuxPoly  # t + 2g t^(1/2) + 1, the real upper bound


def hasse_weil_bounds(q: int, genus: int) -> HasseWeilBounds:
    """Attainable integer envelope q + 1 -+ floor(2g sqrt(q)) (counts are
    integers inside the real interval q + 1 -+ 2g sqrt(q)), together with
    the Puiseux candidates t -+ 2g t^(1/2) + 1."""
    if not is_prime_power(q):
        raise ValueError(f"{q} is not a prime power")
    if genus < 0:
        raise ValueError("genus must be >= 0")
    g4q = 4 * genus * genus * q
    upper = q + isqrt(g4q) + 1
    lower = q - isqrt(g4q) + 1
    ceiling = PuiseuxPoly([(1, 1), (Fraction(2 * genus), Fraction(1, 2)), (1, 0)])
    floor = PuiseuxPoly([(1, 1), (Fraction(-2 * genus), Fraction(1, 2)), (1, 0)])
    return HasseWeilBounds(q, genus, lower, upper, floor, ceiling)


def count_source(
    curve: EllipticCurve, domain: PrimePowerDomain
) -> fit.SequenceSource:
    """(#E(F_q))_q; the domain's excluded set must cover the bad primes.  The
    traces of the domain's primes (its points with m = 1) come from one
    batch, and each count follows from its prime's trace by the recursion."""
    if not curve.bad_primes <= domain.excluded:
        raise ValueError("domain must exclude the curve's bad primes")
    table = TraceTable.of(curve, [pt.p for pt in domain.points if pt.m == 1])
    name = "p" if domain.kind == "primes_only" else "q"
    return fit.SequenceSource(
        f"#E(F_{name}), E: {curve.label}",
        domain,
        lambda pt: count_extension(table, pt.p, pt.m),
    )


FIXTURE_CURVES = (
    EllipticCurve(-1, 0, "y^2=x^3-x"),
    EllipticCurve(1, 0, "y^2=x^3+x"),
    EllipticCurve(0, 1, "y^2=x^3+1"),
    EllipticCurve(0, -2, "y^2=x^3-2"),
    EllipticCurve(-1, 1, "y^2=x^3-x+1"),
)

CM_FIXTURES = FIXTURE_CURVES[:4]  # a=0 or b=0: complex multiplication
