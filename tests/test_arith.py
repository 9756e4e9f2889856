import dataclasses
import itertools
import random
import time

import numpy as np
import pytest

from azw import elliptic, schemes
from azw.arith import (
    ORACLE_FIELD_BOUND,
    STRONG_PSEUDOPRIME_BOUNDS,
    PrimePowerDomain,
    build_field,
    factorize,
    iroot,
    is_prime,
    is_prime_power,
    isqrt,
    legendre,
    sieve,
)


def test_isqrt_examples():
    assert isqrt(0) == 0
    assert isqrt(16) == 4
    assert isqrt(4 * 23) == 9  # floor(2*sqrt(23)) = 9
    assert 9 * 9 <= 92 < 10 * 10


def test_isqrt_envelope_sweep():
    for n in range(10**6 + 1):
        s = isqrt(n)
        assert s * s <= n < (s + 1) * (s + 1)


def test_iroot_random():
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randrange(0, 10**12)
        k = rng.randint(1, 7)
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k
    assert iroot(2**128, 4) == 2**32


def test_legendre_examples():
    assert legendre(5, 5) == 0
    assert legendre(2, 3) == -1  # squares mod 3 are {0, 1}
    assert legendre(4, 5) == 1


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 15)


def test_legendre_multiplicative():
    rng = random.Random(2)
    primes = [p for p in sieve(10**4) if p > 2]
    for _ in range(300):
        p = rng.choice(primes)
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_sums_to_zero():
    for p in sieve(10**3):
        if p == 2:
            continue
        assert sum(legendre(a, p) for a in range(p)) == 0


def test_enumerate_examples():
    d = PrimePowerDomain(frozenset(), "prime_powers", 10)
    assert [(pt.p, pt.m, pt.q) for pt in d.points] == [
        (2, 1, 2), (3, 1, 3), (2, 2, 4), (5, 1, 5), (7, 1, 7), (2, 3, 8), (3, 2, 9),
    ]
    d2 = PrimePowerDomain(frozenset({2}), "prime_powers", 10)
    assert [pt.q for pt in d2.points] == [3, 5, 7, 9]
    d3 = PrimePowerDomain(frozenset(), "primes_only", 10)
    assert [pt.q for pt in d3.points] == [2, 3, 5, 7]


def test_domain_points_follow_a_replaced_excluded_set():
    dom = PrimePowerDomain(frozenset({2}), "prime_powers", 50)
    fewer = dataclasses.replace(dom, excluded=frozenset({2, 3, 7}))
    assert [pt.q for pt in fewer.points] == [
        pt.q for pt in dom.points if pt.p not in (3, 7)
    ] == [5, 11, 13, 17, 19, 23, 25, 29, 31, 37, 41, 43, 47]
    # the points are not part of a domain's value
    assert fewer == PrimePowerDomain(frozenset({2, 3, 7}), "prime_powers", 50)
    assert "points" not in repr(fewer)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fewer.points = ()


def test_enumerate_against_sieve_oracle():
    limit = 10**5
    excluded = frozenset({2, 7})
    # oracle: factor every n and keep the prime powers with allowed base
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p
    expected = []
    for n in range(2, limit + 1):
        p = spf[n]
        k = n
        while k % p == 0:
            k //= p
        if k == 1 and p not in excluded:
            expected.append(n)
    got = [pt.q for pt in PrimePowerDomain(excluded, "prime_powers", limit).points]
    assert got == expected
    assert all(a < b for a, b in zip(got, got[1:]))


def test_domain_validation():
    with pytest.raises(ValueError):
        PrimePowerDomain(frozenset(), "prime_powers", 1)
    with pytest.raises(ValueError):
        PrimePowerDomain(frozenset({4}), "prime_powers", 10)
    with pytest.raises(ValueError):
        PrimePowerDomain(frozenset(), "everything", 10)
    with pytest.raises(ValueError, match="^unknown domain kind 'naturals_from_2'$"):
        PrimePowerDomain(frozenset(), "naturals_from_2", 10)


def test_is_prime_power_against_factorize():
    for q in range(-20, 5000):
        assert is_prime_power(q) == (q >= 2 and len(factorize(q)) == 1), q
    for p, m in ((2, 127), (3, 40), (10007, 5), (1000003, 3)):
        assert is_prime_power(p**m)
        assert not is_prime_power(p**m * (3 if p == 2 else 2))
    assert not is_prime_power(6**40)


def test_factorize():
    assert factorize(1) == []
    assert factorize(-12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(2 * 3 * 5 * 49) == [(2, 1), (3, 1), (5, 1), (7, 2)]


def test_is_prime_matches_sieve():
    primes = set(sieve(2000))
    for n in range(2001):
        assert is_prime(n) == (n in primes)


def trial_division_is_prime(n: int) -> bool:
    """The reference: trial division by 2, 3 and 6k +- 1 up to isqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def test_is_prime_matches_trial_division_below_a_million():
    assert [n for n in range(10**6) if is_prime(n)] == [n for n in range(10**6) if trial_division_is_prime(n)]


def test_is_prime_rejects_every_strong_pseudoprime_bound():
    # one factor of each psi_k; psi_k must pass the first k bases, so only
    # the next base can reject it
    factor = {2047: 23, 1373653: 829, 25326001: 2251, 3215031751: 151, 2152302898747: 6763,
              3474749660383: 1303, 341550071728321: 10670053, 3825123056546413051: 149491,
              318665857834031151167461: 399165290221, 3317044064679887385961981: 1287836182261}
    bases = [b for b, _ in STRONG_PSEUDOPRIME_BOUNDS]
    assert bases == [p for p in sieve(41)]
    for k, (_, psi) in enumerate(STRONG_PSEUDOPRIME_BOUNDS, 1):
        assert 1 < factor[psi] < psi and psi % factor[psi] == 0
        s = ((psi - 1) & (1 - psi)).bit_length() - 1
        for b in bases[:k]:
            x = pow(b, (psi - 1) >> s, psi)
            assert x == 1 or psi - 1 in [pow(x, 2**i, psi) for i in range(s)], (psi, b)
        if k < len(bases):
            assert not is_prime(psi)
    psi_13 = STRONG_PSEUDOPRIME_BOUNDS[-1][1]
    with pytest.raises(ValueError, match=f"exact below {psi_13} only"):
        is_prime(psi_13)
    assert not is_prime(psi_13 + 1)  # even: no test is needed


def test_is_prime_power_of_a_large_prime_is_fast():
    mersenne = 2**61 - 1
    t0 = time.perf_counter()
    assert is_prime(mersenne) and is_prime_power(mersenne**2)
    assert time.perf_counter() - t0 < 1


def test_sieve_refuses_a_limit_too_large_to_index():
    # 10^23 cannot size a bytearray; nothing is allocated before the refusal
    message = f"sieve limit {10**23} is too large to index"
    with pytest.raises(ValueError, match=message):
        sieve(10**23)
    with pytest.raises(ValueError, match=message):
        PrimePowerDomain(frozenset(), "primes_only", 10**23)


def test_build_field_prime_field():
    f = build_field(5, 1)
    assert f.order == 5
    assert f.elements().tolist() == [[0, 1, 2, 3, 4]]
    assert f.mul(f.from_int(3), f.from_int(4)).tolist() == [[2]]


def test_build_field_f4_modulus_unique():
    f = build_field(2, 2)
    assert f.modulus == (1, 1)  # x^2 + x + 1 is the only irreducible choice
    elems = f.elements()
    assert elems.shape == (2, 4)
    assert len({tuple(col) for col in elems.T}) == 4


def test_build_field_f9_generator_order():
    f = build_field(3, 2)
    orders = []
    for z in f.elements().T[1:]:  # every nonzero element, one (2, 1) column at a time
        z = z.reshape(2, 1)
        w, powers = z, []
        for _ in range(8):  # z^1 .. z^8; the order is the first k with z^k = 1
            powers.append(int(f.code(w)[0]))
            w = f.mul(w, z)
        assert 1 in powers
        orders.append(powers.index(1) + 1)
    assert max(orders) == 8
    assert orders.count(8) == 4  # phi(8) generators


def test_field_axioms_random():
    rng = random.Random(3)
    for p, m in ((7, 1), (3, 2), (2, 3), (5, 3)):
        f = build_field(p, m)
        elems = f.elements()
        a, b, c = (elems[:, [rng.randrange(f.order) for _ in range(50)]] for _ in range(3))
        assert (((a + b) % p + c) % p == (a + (b + c) % p) % p).all()
        assert (f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))).all()
        assert (f.mul(a, (b + c) % p) == (f.mul(a, b) + f.mul(a, c)) % p).all()
        nonzero = a[:, f.code(a) != 0]
        assert (f.code(f.pow(nonzero, f.order - 1)) == 1).all()


def test_build_field_caps():
    with pytest.raises(ValueError):
        build_field(8191, 2)  # 8191^2 > 30000
    with pytest.raises(ValueError):
        build_field(4, 1)
    # any degree, as long as the field is small
    f = build_field(2, 6)
    assert f.order == 64
    assert len({tuple(col) for col in f.elements().T}) == 64


def _digits(n: int, p: int, m: int) -> list[int]:
    return [n // p**i % p for i in range(m)]


def _schoolbook_mul(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """Plain-int polynomial product of a and b, reduced by x^m + modulus."""
    m = len(a)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    monic = list(modulus) + [1]
    for top in range(2 * m - 2, m - 1, -1):
        c = prod[top] % p
        for i, coeff in enumerate(monic):
            prod[top - m + i] -= c * coeff
    return [c % p for c in prod[:m]]


SMALL_FIELDS = [(p, m) for p in sieve(125) for m in range(1, 8) if p**m <= 125]


def test_field_products_match_schoolbook():
    for p, m in SMALL_FIELDS:
        f = build_field(p, m)
        q = p**m
        z = f.elements()
        table = f.code(f.mul(z[:, :, None], z[:, None, :]))  # table[i, j] = code(z_i z_j)
        digits = [_digits(n, p, m) for n in range(q)]
        assert digits == z.T.tolist()
        for i in range(q):
            for j in range(q):
                expected = _schoolbook_mul(digits[i], digits[j], f.modulus, p)
                assert table[i, j] == sum(c * p**k for k, c in enumerate(expected)), (p, m, i, j)


def test_unit_group_cyclic():
    for p, m in SMALL_FIELDS:
        f = build_field(p, m)
        q = p**m
        units = f.elements()[:, 1:]
        assert (f.code(f.pow(units, q - 1)) == 1).all()
        # a generator: no power (q-1)/r is 1, for each prime r | q - 1
        is_gen = np.ones(q - 1, dtype=bool)
        for r, _ in factorize(q - 1):
            is_gen &= f.code(f.pow(units, (q - 1) // r)) != 1
        g = units[:, [int(np.argmax(is_gen))]]
        powers, w = set(), g
        for _ in range(q - 1):
            powers.add(int(f.code(w)[0]))
            w = f.mul(w, g)
        assert powers == set(range(1, q)), (p, m)


# --- the modulus search and the oracles against plain-int references -----------


def _remainder(num: list[int], den: list[int], p: int) -> list[int]:
    """num mod the monic den over F_p, as a plain-int long division."""
    num = list(num)
    dn = len(den) - 1
    for top in range(len(num) - 1, dn - 1, -1):
        c = num[top] % p
        for i, coeff in enumerate(den):
            num[top - dn + i] -= c * coeff
    return [c % p for c in num[:dn]]


def _irreducible_by_trial_division(coeffs: tuple[int, ...], p: int) -> bool:
    """x^m + sum coeffs[i] x^i has no monic divisor of degree 1 .. m // 2."""
    poly = list(coeffs) + [1]
    return all(
        any(_remainder(poly, list(lower) + [1], p))
        for d in range(1, len(coeffs) // 2 + 1)
        for lower in itertools.product(range(p), repeat=d)
    )


def _first_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The lexicographically first irreducible over all lower coefficients, c0 = 0 included."""
    return next(c for c in itertools.product(range(p), repeat=m) if _irreducible_by_trial_division(c, p))


def test_modulus_is_the_first_irreducible_in_lexicographic_order():
    fields = [(p, m) for p in sieve(ORACLE_FIELD_BOUND) for m in range(2, 15) if p**m <= ORACLE_FIELD_BOUND]
    assert len(fields) == 75
    for p, m in fields:
        assert build_field(p, m).modulus == _first_irreducible(p, m), (p, m)


def _tables(p: int, m: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables of F_{p^m} on element codes, by
    digit sums and _schoolbook_mul modulo the reference modulus."""
    q = p**m
    modulus = _first_irreducible(p, m) if m > 1 else (0,)
    digits = [_digits(n, p, m) for n in range(q)]

    def code(ds: list[int]) -> int:
        return sum(c * p**k for k, c in enumerate(ds))

    add = [[code([(x + y) % p for x, y in zip(a, b)]) for b in digits] for a in digits]
    mul = [[code(_schoolbook_mul(a, b, modulus, p)) for b in digits] for a in digits]
    return add, mul


ORACLE_QS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2))


def test_oracles_match_a_double_loop_over_the_field():
    # an element of F_p has code n mod p, so the scalars are those codes
    discs = [d for d in range(-20, 21) if d and d % 4 in (0, 1)]
    curves = (elliptic.FIXTURE_CURVES[4], elliptic.FIXTURE_CURVES[1])  # y^2=x^3-x+1, y^2=x^3+x
    for p, m in ORACLE_QS:
        add, mul = _tables(p, m)
        pairs = list(itertools.product(range(p**m), repeat=2))
        for d in discs:
            if d % 4 == 0:  # x^2 - (D/4) y^2 = 1
                c = -(d // 4) % p
                want = sum(add[mul[x][x]][mul[c][mul[y][y]]] == 1 for x, y in pairs)
            else:  # x^2 + xy + ((1 - D)/4) y^2 = 1
                c = (1 - d) // 4 % p
                want = sum(add[add[mul[x][x]][mul[x][y]]][mul[c][mul[y][y]]] == 1 for x, y in pairs)
            assert schemes.count_pell_oracle(schemes.PellConic(d), p, m) == want, (d, p, m)
        for curve in curves:
            if p in curve.bad_primes:
                continue
            a, b = curve.a % p, curve.b % p
            rhs = [add[add[mul[mul[x][x]][x]][mul[a][x]]][b] for x in range(p**m)]
            want = 1 + sum(mul[y][y] == rhs[x] for x, y in pairs)
            assert elliptic.count_extension_oracle(curve, p, m) == want, (curve.label, p, m)
