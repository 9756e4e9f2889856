"""Runs every acceptance criterion at its pinned parameters and prints one
pass/fail line per criterion (visible with `pytest -s`, or via `azw repro`).

Each test asserts the criterion's outcome rather than its PASS mark:

- it has no defects (no exact comparison disagrees, no envelope bound is
  violated, no shortfall stays unhealed at the diagnostic limit, no runtime
  budget is exceeded);
- its witness shortfalls are exactly the ones predicted below from the
  factorization of each discriminant, with the predicted witnesses;
- it reports FAIL exactly when it has shortfalls.

Only criterion 4 has predicted shortfalls, so it still reports FAIL (and
`azw repro` still exits 1): for the eight discriminants in [-50, 50] whose
only odd ramified prime p is >= 19, the 2t ceiling with S in {{}, {2}} is
attained only at the powers of p, and only p and p^2 lie below the pinned
scan limit 5000 (threshold 3).  At the diagnostic limit 110000 the witnesses
are p, p^2 and p^3.
"""

import dataclasses

import pytest

from azw import acceptance, arith

# criterion 4's pinned parameters, written out here so that re-pinning them fails
PELL_LIMIT = 5000
PELL_DIAGNOSTIC_LIMIT = 110000
WITNESS_THRESHOLD = 3


def odd_prime_divisors(n: int) -> set[int]:
    n = abs(n)
    return {p for p in range(3, n + 1, 2) if n % p == 0 and all(p % k for k in range(3, p, 2))}


def powers_up_to(primes: set[int], limit: int) -> tuple[int, ...]:
    out = []
    for p in primes:
        q = p
        while q <= limit:
            out.append(q)
            q *= p
    return tuple(sorted(out))


def predicted_pell_shortfalls() -> set[tuple[int, tuple[int, ...], str]]:
    """(D, S, mode) for every criterion-4 envelope expected to fall short.

    With an odd prime dividing D left out of S the ceiling is 2t, which equals
    the count exactly at the powers of those primes; every other envelope has
    witnesses at a positive density of prime powers.
    """
    out = set()
    for d in range(-50, 51):
        if d == 0 or d % 4 not in (0, 1):
            continue
        odd = odd_prime_divisors(d)
        bad = odd | ({2} if d % 2 == 0 else set())
        for s in (set(), {2}, bad, bad | {2}):
            if odd and not odd & s and len(powers_up_to(odd, PELL_LIMIT)) < WITNESS_THRESHOLD:
                out.add((d, tuple(sorted(s)), "ceiling"))
    return out


@pytest.mark.parametrize("runner", acceptance.ALL, ids=lambda fn: fn.__name__)
def test_criterion(runner):
    result = runner()
    print(result.line())
    assert result.defects == (), result.line()

    found = [(sf.disc, sf.excluded, sf.mode) for sf in result.shortfalls]
    assert len(found) == len(set(found)), result.line()
    expected = predicted_pell_shortfalls() if result.number == 4 else set()
    assert set(found) == expected, result.line()
    for sf in result.shortfalls:
        odd = odd_prime_divisors(sf.disc)
        assert sf.witnesses == powers_up_to(odd, PELL_LIMIT), sf
        assert sf.diagnostic_witnesses == powers_up_to(odd, PELL_DIAGNOSTIC_LIMIT), sf

    assert result.passed == (not result.shortfalls), result.line()


def test_census_does_not_depend_on_run_order():
    # criterion 9 counts the same fixture curve as criterion 10, so a value
    # left behind by one would show up in the other
    def outcome(result):
        return dataclasses.replace(result, seconds=0.0)

    first = outcome(acceptance.criterion_10())
    acceptance.criterion_09()
    assert outcome(acceptance.criterion_10()) == first


def test_criterion_02_sieves_its_two_domains_once(monkeypatch):
    # the 200 schemes share the two domains, so the 400 sources sieve nothing
    sieved = []
    monkeypatch.setattr(arith, "sieve", lambda n, f=arith.sieve: sieved.append(n) or f(n))
    assert acceptance.criterion_02().passed
    assert sieved == [5000, 5000]


def test_criterion_04_sieves_its_fixed_limits_once(monkeypatch):
    # the 49 discriminants share the oracle primes below 97 and 13, and the
    # 40 domains at 5000 and 2 at 110000 sieve once each
    sieved = []

    def counted(n, sieve=arith.sieve):
        sieved.append(n)
        return sieve(n)

    for module in (arith, acceptance):
        monkeypatch.setattr(module, "sieve", counted)
    result = acceptance.criterion_04()
    assert sorted(sieved) == [13, 97] + [5000] * 40 + [110000] * 2
    assert not result.passed
    assert "16 shortfalls at the pinned limit, 16 of them verified at limit 110000" in result.line()
