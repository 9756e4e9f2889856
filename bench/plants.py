"""Faults planted into azw for the self-test (bench/selftest.py).

Each fault replaces one public name of one azw module by a version that is
wrong in one way.  The workload's checks must then report at least one
failed operation.  Nothing here runs in a benchmark run: the worker installs
a fault only when given --plant.
"""

from __future__ import annotations

import importlib


def wrong_count(original):
    """count_pell is one too large at q = 7^2."""

    def count_pell(conic, p, m):
        return original(conic, p, m) + (p == 7 and m == 2)

    return count_pell


def dropped_witness(original):
    """The first verdict that has witnesses loses its last one."""
    done = []

    def verify_ceiling(f, src, *args, **kwargs):
        v = original(f, src, *args, **kwargs)
        if v.witnesses and not done:
            done.append(v)
            v = type(v)(**{**v.__dict__, "witnesses": v.witnesses[:-1]})
        return v

    return verify_ceiling


def isqrt_off_by_one(original):
    """elliptic's isqrt rounds up, one too large at every non-square, so
    classify_prime compares a_p with floor(2 sqrt p) + 1."""

    def isqrt(n):
        r = original(n)
        return r + (r * r != n)

    return isqrt


def wrong_supersingular(original):
    """classify_prime calls one ordinary prime supersingular."""

    def classify_prime(curve, p):
        cls = original(curve, p)
        if p == 10009:  # 10009 = 1 mod 12: ordinary on every j = 0 or 1728 curve
            return "supersingular"
        return cls

    return classify_prime


# fault -> (workload that must report it, azw module, name replaced, replacement)
FAULTS = {
    "wrong_count": ("oracle", "schemes", "count_pell", wrong_count),
    "dropped_witness": ("envelope", "fit", "verify_ceiling", dropped_witness),
    "isqrt_off_by_one": ("census", "elliptic", "isqrt", isqrt_off_by_one),
    "wrong_supersingular": ("census", "elliptic", "classify_prime", wrong_supersingular),
}


def install(name: str) -> None:
    _, module_name, attr, make = FAULTS[name]
    module = importlib.import_module(f"azw.{module_name}")
    setattr(module, attr, make(getattr(module, attr)))
