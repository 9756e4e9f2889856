import itertools
import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from azw import fit, monoid
from azw.acceptance import random_scheme
from azw.arith import PrimePowerDomain, build_field, factorize
from azw.monoid import MonoidScheme, MonoidSchemePoint
from azw.puiseux import PuiseuxPoly, parse_puiseux
from azw.zeta import FormalProduct, parse_product, soule_zeta

P1 = monoid.projective_space(1)
F13 = monoid.spec_f1n(3)
GM = monoid.multiplicative_group()


def test_torsion_canonicalization():
    # prime-power input is recombined into the divisibility chain
    assert MonoidSchemePoint(0, (4, 3)).torsion == (12,)
    assert MonoidSchemePoint(0, (2, 4, 3)).torsion == (2, 12)
    assert MonoidSchemePoint(0, (2, 2, 2)).torsion == (2, 2, 2)
    assert MonoidSchemePoint(0, (6, 4)).torsion == (2, 12)
    assert MonoidSchemePoint(0, (1, 5)).torsion == (5,)  # 1 is a no-op
    assert MonoidSchemePoint(2).torsion == ()
    with pytest.raises(ValueError):
        MonoidSchemePoint(0, (0,))
    with pytest.raises(ValueError):
        MonoidSchemePoint(-1)


def reference_chain(entries) -> tuple[int, ...]:
    """The invariant factors of prod Z/t by factoring every entry: each
    prime's exponents, sorted, are dealt out from the largest factor down."""
    by_prime: dict[int, list[int]] = {}
    for t in entries:
        for p, e in factorize(t):
            by_prime.setdefault(p, []).append(e)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    length = max((len(v) for v in by_prime.values()), default=0)
    chain = [
        math.prod(p ** exps[k] for p, exps in by_prime.items() if k < len(exps))
        for k in range(length)
    ]
    return tuple(reversed(chain))


# entries that share primes (products of small primes) and entries that do not
torsion_entries = st.lists(
    st.one_of(
        st.builds(math.prod, st.lists(st.sampled_from([2, 3, 5, 7]), max_size=8)),
        st.integers(1, 10**6),
    ),
    max_size=6,
)


@given(torsion_entries)
def test_gcd_lcm_chain_is_the_factored_chain(entries):
    chain = monoid._invariant_chain(entries)
    assert chain == reference_chain(entries)
    assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
    assert math.prod(chain) == math.prod(entries)


def test_a_large_torsion_entry_is_not_factored():
    big = 10**36 + 7
    assert MonoidSchemePoint(1, (big,)).torsion == (big,)
    assert MonoidSchemePoint(0, (2 * big, 3 * big, 1)).torsion == (big, 6 * big)


def test_canonicalization_preserves_counts():
    rng = random.Random(21)
    for _ in range(100):
        entries = tuple(rng.randint(2, 16) for _ in range(rng.randint(1, 4)))
        pt = MonoidSchemePoint(0, entries)
        x_canon = MonoidScheme((pt,))
        for n in range(1, 40):
            assert monoid.count_f1n(x_canon, n) == math.prod(math.gcd(n, t) for t in entries)


def test_count_f1n_examples():
    assert monoid.count_f1n(P1, 4) == 6  # 1 + 1 + 4
    assert monoid.count_f1n(F13, 6) == 3  # gcd(6, 3)
    assert monoid.count_f1n(MonoidScheme(()), 5) == 0
    assert monoid.count_f1n(P1, 1) == len(P1.points)


def test_count_zlift_examples():
    assert monoid.count_zlift(P1, 5) == 6
    assert monoid.count_zlift(GM, 7) == 6
    for x in (P1, F13, GM, monoid.affine_space(2)):
        assert monoid.count_zlift(x, 2) == len(x.points)
    with pytest.raises(ValueError):
        monoid.count_zlift(P1, 6)
    with pytest.raises(ValueError):
        monoid.count_zlift(P1, 1)


def test_model_counts_against_classical_formulas():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        assert monoid.count_zlift(monoid.affine_space(3), q) == q**3
        assert monoid.count_zlift(monoid.projective_space(2), q) == q * q + q + 1
        assert monoid.count_zlift(GM, q) == q - 1
        assert monoid.count_zlift(monoid.spec_f1n(4), q) == math.gcd(q - 1, 4)


def test_ceiling_poly_examples():
    assert monoid.ceiling_poly(P1) == parse_puiseux("t + 1")
    assert monoid.ceiling_poly(F13) == PuiseuxPoly([(3, 0)])
    union = monoid.disjoint_union(GM, monoid.spec_f1n(2))
    assert monoid.ceiling_poly(union) == parse_puiseux("t + 1")


def test_floor_poly_examples():
    f14 = monoid.spec_f1n(4)
    assert monoid.floor_poly(f14, frozenset()) == PuiseuxPoly([(1, 0)])
    assert monoid.floor_poly(f14, frozenset({2})) == PuiseuxPoly([(2, 0)])
    assert monoid.floor_poly(P1, frozenset({2, 5})) == parse_puiseux("t + 1")


def test_zeta_product_examples():
    assert monoid.zeta_product(P1) == parse_product("1 / (s (s-1))")
    assert monoid.zeta_product(F13) == parse_product("1 / s^3")
    for n in range(6):
        pn = monoid.projective_space(n)
        expected = FormalProduct([(k, -1) for k in range(n + 1)])
        assert monoid.zeta_product(pn) == expected
        # the ceiling polynomial telescopes to 1 + t + ... + t^n
        assert monoid.ceiling_poly(pn) == PuiseuxPoly([(1, j) for j in range(n + 1)])


def test_zeta_floor_product():
    f14 = monoid.spec_f1n(4)
    assert monoid.zeta_floor_product(f14, frozenset({2})) == parse_product("1 / s^2")
    assert monoid.zeta_floor_product(f14, frozenset()) == parse_product("1 / s")


def test_f1_ceiling_floor():
    assert monoid.f1_ceiling_floor(F13) == (PuiseuxPoly([(3, 0)]), PuiseuxPoly([(1, 0)]))
    assert monoid.f1_ceiling_floor(P1) == (parse_puiseux("t + 1"), parse_puiseux("t + 1"))
    x = MonoidScheme((MonoidSchemePoint(1, (2,)),))
    assert monoid.f1_ceiling_floor(x) == (parse_puiseux("2t - 2"), parse_puiseux("t - 1"))


def test_qfiber_ceiling_floor():
    assert monoid.qfiber_ceiling_floor(monoid.spec_f1n(4)) == (
        PuiseuxPoly([(4, 0)]),
        PuiseuxPoly([(2, 0)]),
    )
    assert monoid.qfiber_ceiling_floor(F13) == (
        PuiseuxPoly([(3, 0)]),
        PuiseuxPoly([(1, 0)]),
    )
    # envelopes agree exactly when every torsion entry is 2-torsion
    two = MonoidScheme((MonoidSchemePoint(1, (2, 2)), MonoidSchemePoint(0, (2,))))
    c, f = monoid.qfiber_ceiling_floor(two)
    assert c == f
    mixed = MonoidScheme((MonoidSchemePoint(1, (4,)),))
    c, f = monoid.qfiber_ceiling_floor(mixed)
    assert c != f


def test_zeta_matches_soule_on_random_schemes():
    rng = random.Random(22)
    for _ in range(200):
        x = random_scheme(rng)
        assert monoid.zeta_product(x) == soule_zeta(monoid.ceiling_poly(x))
        for s in (frozenset(), frozenset({2})):
            assert monoid.zeta_floor_product(x, s) == soule_zeta(monoid.floor_poly(x, s))


def test_product_combinator():
    gm2 = monoid.product(GM, GM)
    for q in (3, 5, 9):
        assert monoid.count_zlift(gm2, q) == (q - 1) ** 2
    mixed = monoid.product(monoid.spec_f1n(2), monoid.spec_f1n(3))
    (pt,) = mixed.points
    assert pt.torsion == (6,)
    for n in range(1, 30):
        assert monoid.count_f1n(mixed, n) == math.gcd(n, 2) * math.gcd(n, 3)


def test_hom_count_oracle_small():
    # one-point scheme for A = Z x Z/3: #Hom(A, F_q^x) enumerated exhaustively
    x = MonoidScheme((MonoidSchemePoint(1, (3,)),))
    for q in (4, 5, 7, 9, 13):
        ((p, m),) = factorize(q)
        fld = build_field(p, m)
        units = fld.elements()[:, 1:]  # column 0 is the zero element
        codes = fld.code(units)
        torsion_images = codes[fld.code(fld.pow(units, 3)) == 1]
        assert len(codes) == q - 1
        homs = sum(1 for _ in itertools.product(codes, torsion_images))
        assert homs == monoid.count_zlift(x, q)


def test_json_roundtrip(tmp_path):
    x = MonoidScheme(
        (MonoidSchemePoint(2, (2, 4)), MonoidSchemePoint(0, (3,))), "demo"
    )
    path = tmp_path / "x.json"
    monoid.save_scheme(x, str(path))
    assert monoid.load_scheme(str(path)) == x
    data = json.loads(path.read_text())
    assert data["points"][0] == {"r": 2, "torsion": [2, 4]}
    with pytest.raises(ValueError):
        monoid.scheme_from_dict({"label": "bad"})


def test_verify_integration_p1():
    dom = PrimePowerDomain(frozenset(), "prime_powers", 500)
    src = monoid.zlift_source(P1, dom)
    v = fit.verify_ceiling(monoid.ceiling_poly(P1), src, 3)
    assert v.verified
    assert v.witnesses[:4] == (2, 3, 4, 5)  # exact equality everywhere
    vf = fit.verify_floor(monoid.floor_poly(P1, frozenset()), src, 3)
    assert vf.verified


@pytest.mark.parametrize(
    "x",
    [
        monoid.spec_f1n(6),
        monoid.affine_space(2),
        monoid.projective_space(3),
        monoid.product(monoid.projective_space(1), monoid.spec_f1n(4)),
        monoid.disjoint_union(F13, GM, monoid.spec_f1n(2)),
    ],
    ids=lambda x: x.label,
)
def test_f1_envelopes_are_the_brute_max_and_min(x):
    """On n = 2..N the sequence #X(F_{1^(n-1)}) stays between the two
    envelopes and meets each at least three times."""
    ceiling, floor = (
        [(int(c), int(e)) for c, e in f.terms] for f in monoid.f1_ceiling_floor(x)
    )
    above, below = [], []
    for n in range(2, 200):
        a = monoid.count_f1n(x, n - 1)
        above.append(a - sum(c * n**e for c, e in ceiling))
        below.append(a - sum(c * n**e for c, e in floor))
    assert max(above) == 0 and above.count(0) >= 3
    assert min(below) == 0 and below.count(0) >= 3
