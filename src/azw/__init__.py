"""azw: exact point counts, ceiling/floor (Puiseux) envelopes, and absolute
zeta functions as formal products."""

from .arith import PrimePowerDomain, build_field, isqrt, legendre
from .elliptic import EllipticCurve, census, classify_prime, count_extension, count_fp
from .fit import (
    SequenceSource,
    Verdict,
    reject_linear_family,
    search_polynomial,
    verify_ceiling,
    verify_floor,
)
from .monoid import MonoidScheme, MonoidSchemePoint, ceiling_poly, count_zlift, floor_poly
from .puiseux import PuiseuxPoly, expand_binomial, format_puiseux, parse_puiseux
from .schemes import PellConic, count_pell, envelopes_pell
from .zeta import (
    FormalProduct,
    check_functional_equation,
    format_product,
    parse_product,
    reflect,
    soule_zeta,
    tensor,
)

__version__ = "0.1.0"
