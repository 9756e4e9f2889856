"""Independent checks of the workloads' results.

Nothing here imports azw.  Every expected value is recomputed from the inputs
with plain integer arithmetic (brute-force character sums with Euler's
criterion, `math.isqrt`, integer rescans of count sequences), or is a
property the mathematics guarantees (Hasse's bound, divisibility of
extension counts, the supersingular primes of the CM curves).  Each check
takes an operation's spec and the plain form of its result and returns a
list of problems; an empty list passes.
"""

from __future__ import annotations

import math
from itertools import product

VERIFIED = "verified"
BOUND_VIOLATED = "bound_violated"
INSUFFICIENT_WITNESSES = "insufficient_witnesses"


# --- plain number theory ------------------------------------------------------


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def prime_factors(n: int) -> set[int]:
    n = abs(n)
    out = set()
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    if n > 1:
        out.add(n)
    return out


def prime_powers_upto(limit: int, excluded=frozenset()) -> list[tuple[int, int, int]]:
    """(q, p, m) for every q = p^m <= limit with p not excluded, ascending in q."""
    out = []
    for p in primes_upto(limit):
        if p in excluded:
            continue
        q, m = p, 1
        while q <= limit:
            out.append((q, p, m))
            q *= p
            m += 1
    return sorted(out)


def curve_bad_primes(a: int, b: int) -> set[int]:
    """2, 3 and the primes dividing the discriminant -16(4a^3 + 27b^2)."""
    return {2, 3} | prime_factors(4 * a**3 + 27 * b**2)


def chi(a: int, p: int) -> int:
    """Quadratic character of a mod an odd prime p, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def curve_count_fp(a: int, b: int, p: int) -> int:
    """#E(F_p) for y^2 = x^3 + ax + b and odd p, as p + 1 + sum_x chi(rhs)."""
    return p + 1 + sum(chi(x * x * x + a * x + b, p) for x in range(p))


def pell_count_fp(d: int, p: int) -> int:
    """Affine solutions over F_p of the Pell conic of discriminant d."""
    if p == 2:
        if d % 4 == 0:
            return sum((x * x - (d // 4) * y * y) % 2 == 1 for x in (0, 1) for y in (0, 1))
        c = (1 - d) // 4
        return sum((x * x + x * y + c * y * y) % 2 == 1 for x in (0, 1) for y in (0, 1))
    if d % 4 == 0:  # x^2 = 1 + (d/4) y^2
        return sum(1 + chi(1 + (d // 4) * y * y, p) for y in range(p))
    return sum(1 + chi(4 + d * y * y, p) for y in range(p))  # (2x+y)^2 = 4 + d y^2


def hasse_ok(q: int, count: int) -> bool:
    return (q + 1 - count) ** 2 <= 4 * q


# --- oracle ---------------------------------------------------------------------


def check_oracle(spec: dict, result) -> list[str]:
    closed, oracle = result
    q = spec["p"] ** spec["m"]
    where = f"{spec['kind']} {spec.get('d', (spec.get('a'), spec.get('b')))} q={spec['p']}^{spec['m']}"
    problems = []
    if closed != oracle:
        problems.append(f"{where}: closed form {closed} != oracle {oracle}")
    if spec["kind"] == "pell":
        if spec["m"] == 1 and oracle != pell_count_fp(spec["d"], spec["p"]):
            problems.append(f"{where}: oracle {oracle} != brute force {pell_count_fp(spec['d'], spec['p'])}")
        return problems
    a, b, p = spec["a"], spec["b"], spec["p"]
    n1 = curve_count_fp(a, b, p)
    if not hasse_ok(q, oracle):
        problems.append(f"{where}: count {oracle} outside the Hasse bound")
    if oracle % n1:
        problems.append(f"{where}: #E(F_p) = {n1} does not divide {oracle}")
    if spec["m"] == 1 and oracle != n1:
        problems.append(f"{where}: oracle {oracle} != brute force {n1}")
    return problems


# --- census ---------------------------------------------------------------------


def expected_class(p: int, ap: int) -> str:
    bound = math.isqrt(4 * p)
    if ap == 0:
        return "supersingular"
    if ap == -bound:
        return "champion"
    if ap == bound:
        return "trailing"
    return "other"


def check_census(spec: dict, result: dict) -> list[str]:
    a, b, x_max = spec["a"], spec["b"], spec["x_max"]
    bad = curve_bad_primes(a, b)
    good = [p for p in primes_upto(x_max) if p not in bad]
    rows = result["rows"]
    problems = []
    if result["excluded"] != sorted(bad):
        problems.append(f"excluded {result['excluded']} != bad primes {sorted(bad)}")
    if [p for p, _, _ in rows] != good:
        problems.append("rows do not cover exactly the good primes <= x_max in order")
    classes = {}
    for p, ap, cls in rows:
        if ap * ap > 4 * p:
            problems.append(f"a_{p} = {ap} violates the Hasse bound")
        want = expected_class(p, ap)
        if cls != want:
            problems.append(f"p={p}: class {cls} != {want} from a_p = {ap}")
        classes.setdefault(want, []).append(p)
        if spec["family"] == "j1728" and ap % 2:
            problems.append(f"p={p}: a_p = {ap} is odd on a curve with a 2-torsion point")
    for name in ("champion", "trailing", "supersingular"):
        if result[name] != classes.get(name, []):
            problems.append(f"{name} list does not match the recomputed classes")
    rule = {"j1728": lambda p: p % 4 == 3, "j0": lambda p: p % 3 == 2}.get(spec["family"])
    if rule is not None and result["supersingular"] != [p for p in good if rule(p)]:
        problems.append(f"supersingular primes are not exactly those the {spec['family']} rule gives")
    traces = {p: ap for p, ap, _ in rows}
    for p in spec["sample"]:
        want = p + 1 - curve_count_fp(a, b, p)
        if traces.get(p) != want:
            problems.append(f"a_{p} = {traces.get(p)} != brute-force {want}")
    return problems


# --- envelope and search: integer rescans ------------------------------------------


def rescan(values, counts, mode: str, threshold: int):
    """(status, witnesses, violation) of a bound given by its integer values:
    floor(f(q)) for a ceiling, ceil(f(q)) for a floor, at each counted q."""
    witnesses = []
    for bound, (q, count) in zip(values, counts):
        if (count > bound) if mode == "ceiling" else (count < bound):
            return BOUND_VIOLATED, witnesses, [q, count]
        if count == bound:
            witnesses.append(q)
    return (VERIFIED if len(witnesses) >= threshold else INSUFFICIENT_WITNESSES), witnesses, None


def check_counts_domain(counts, limit: int, excluded, kind: str) -> list[str]:
    if kind == "primes_only":
        want = [p for p in primes_upto(limit) if p not in excluded]
    else:
        want = [q for q, _, _ in prime_powers_upto(limit, excluded)]
    if [q for q, _ in counts] != want:
        return [f"counted points are not the {kind} domain to {limit} without {sorted(excluded)}"]
    return []


def check_curve_counts(spec: dict, counts, kind: str) -> list[str]:
    bad = curve_bad_primes(spec["a"], spec["b"])
    problems = check_counts_domain(counts, spec["limit"], bad, kind)
    problems += [f"count {n} at q={q} outside the Hasse bound" for q, n in counts if not hasse_ok(q, n)]
    return problems


def check_envelope(spec: dict, result: dict) -> list[str]:
    """Puiseux-mode verdict on t + c t^(1/2) + e (ceiling) or t - c t^(1/2) + e
    (floor), from floor(q + c sqrt q + e) = q + e + isqrt(c^2 q) and
    ceil(q - c sqrt q + e) = q + e - isqrt(c^2 q)."""
    c, e, mode = spec["c"], spec["e"], spec["mode"]
    counts = result["counts"]
    sign = 1 if mode == "ceiling" else -1
    values = [q + e + sign * math.isqrt(c * c * q) for q, _ in counts]
    want = rescan(values, counts, mode, spec["threshold"])
    got = (result["status"], result["witnesses"], result["violation"])
    problems = check_curve_counts(spec, counts, "prime_powers")
    if list(got) != list(want):
        problems.append(f"{mode} c={c} e={e}: verdict {got} != rescan {want}")
    if (c, e) == (2, 1) and result["status"] == BOUND_VIOLATED:
        problems.append(f"Hasse {mode} t {'+-'[sign < 0]} 2t^(1/2) + 1 reported violated")
    return problems


def binomial_envelope(points, weight) -> dict[int, int]:
    """Coefficients of sum over points of weight(torsion) * (t-1)^rank."""
    coeffs: dict[int, int] = {}
    for rank, torsion in points:
        w = weight(torsion)
        for k in range(rank + 1):
            coeffs[k] = coeffs.get(k, 0) + w * (-1) ** (rank - k) * math.comb(rank, k)
    return {k: v for k, v in coeffs.items() if v}


def monoid_count(points, q: int) -> int:
    n = q - 1
    return sum(n**r * math.prod(math.gcd(n, t) for t in torsion) for r, torsion in points)


def _poly_terms(coeffs: dict[int, int]) -> list:
    """The plain form of an integer polynomial as the workloads print it."""
    return [[[c, 1], [k, 1]] for k, c in sorted(coeffs.items(), reverse=True)]


def _search_survivors(spec: dict, counts) -> tuple[list, list]:
    lo, hi, degree, threshold = spec["lo"], spec["hi"], spec["degree"], spec["threshold"]
    powers = [[q**k for k in range(degree + 1)] for q, _ in counts]
    ceilings, floors = [], []
    for coeffs in product(range(lo, hi + 1), repeat=degree + 1):
        values = [sum(c * w for c, w in zip(coeffs, row)) for row in powers]
        if rescan(values, counts, "ceiling", threshold)[0] == VERIFIED:
            ceilings.append(list(coeffs))
        if rescan(values, counts, "floor", threshold)[0] == VERIFIED:
            floors.append(list(coeffs))
    return ceilings, floors


def check_search(spec: dict, result: dict) -> list[str]:
    kind = spec["kind"]
    if kind == "reject":
        return check_reject(spec, result)
    counts = result["counts"]
    problems = check_counts_domain(counts, spec["limit"], (), "prime_powers")
    pps = prime_powers_upto(spec["limit"])
    if kind == "monoid":
        want_counts = [[q, monoid_count(spec["points"], q)] for q, _, _ in pps]
    elif kind == "an":
        want_counts = [[q, q - min(p, spec["n"])] for q, p, _ in pps]
    else:
        want_counts = [[q, q - 1 - math.gcd(q - 1, spec["n"] - 1)] for q, _, _ in pps]
    if counts != want_counts:
        problems.append(f"{kind} counts differ from the closed formula")
    width = spec["hi"] - spec["lo"] + 1
    if result["candidates_tested"] != width ** (spec["degree"] + 1):
        problems.append(f"{result['candidates_tested']} candidates tested, box has {width ** (spec['degree'] + 1)}")
    ceilings, floors = _search_survivors(spec, counts)
    for mode, want in (("ceiling", ceilings), ("floor", floors)):
        if result[mode] != want:
            problems.append(f"{kind} {mode} survivors {result[mode]} != rescan {want}")
        if result[f"{mode}_ambiguous"] != (len(want) > 1):
            problems.append(f"{kind} {mode} ambiguity flag is wrong")
    if kind == "monoid":
        problems += check_closed_forms(spec["points"], result)
    return problems


def check_closed_forms(points, result: dict) -> list[str]:
    ceiling = binomial_envelope(points, math.prod)
    floor = binomial_envelope(points, lambda torsion: 1)
    zeta = sorted([[k, 1], [-c, 1]] for k, c in ceiling.items())
    problems = []
    if result["ceiling_poly"] != _poly_terms(ceiling):
        problems.append(f"ceiling_poly {result['ceiling_poly']} != sum T (t-1)^r")
    if result["floor_poly"] != _poly_terms(floor):
        problems.append(f"floor_poly {result['floor_poly']} != sum (t-1)^r")
    if result["zeta_product"] != zeta or result["soule_of_ceiling"] != zeta:
        problems.append("zeta_product, soule_zeta(ceiling) and prod (s-k)^(-a_k) disagree")
    for name in ("ceiling_text", "floor_text", "zeta_text"):
        before, after = result[name]
        if before != after:
            problems.append(f"{name}: {before} parses back as {after}")
    return problems


def check_reject(spec: dict, result: dict) -> list[str]:
    counts = result["counts"]
    problems = check_curve_counts(spec, counts, "primes_only")
    worst = max(1 - (q + 1 - n) for q, n in counts)  # max_p (1 - a_p)
    threshold = spec["threshold"]
    rows = result["rows"]
    if [row["c"] for row in rows] != list(range(spec["c_lo"], spec["c_hi"] + 1)):
        problems.append("reject_linear_family did not report every c in order")
    for row in rows:
        c = row["c"]
        values = [q + c for q, _ in counts]
        for mode in ("ceiling", "floor"):
            want = rescan(values, counts, mode, threshold)
            if list(row[mode]) != list(want):
                problems.append(f"t{c:+d} {mode}: verdict {row[mode]} != rescan {want}")
        if (row["ceiling"][0] == BOUND_VIOLATED) != (worst > c):
            problems.append(f"t{c:+d} ceiling violated is not max_p(1 - a_p) = {worst} > {c}")
    return problems


CHECKS = {
    "oracle": check_oracle,
    "census": check_census,
    "envelope": check_envelope,
    "search": check_search,
}
