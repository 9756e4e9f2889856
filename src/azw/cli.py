"""Command-line front end.

Subcommands: monoid (counts/envelopes/zeta from a JSON scheme), family
(punctured-line / punctured-torus / Pell sweeps), curve (counts, prime
classification, census), fit (verify / search / reject-linear), zeta
(soule / tensor / reflect / funceq on parsed expressions), repro (the full
acceptance suite).  Each handler validates the options it reads before it
computes or prints anything.  Output is deterministic byte-for-byte for a
fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Callable, NamedTuple, Optional

from . import elliptic, fit, monoid, schemes
from .arith import PrimePowerDomain, check_excluded
from .puiseux import format_puiseux, parse_fraction, parse_puiseux
from .zeta import check_functional_equation, format_product, parse_product, reflect, soule_zeta, tensor

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_VIOLATED = 2
EXIT_NO_WITNESSES = 3


class Family(NamedTuple):
    """An explicit family: its one spec key, and what each subcommand needs."""

    key: str
    build: Callable  # the key's integer -> the family object
    count: Callable  # (obj, p, m) -> count
    envelopes: Callable  # (obj, excluded) -> (ceiling, floor)
    source: Callable  # (obj, domain) -> SequenceSource
    qfiber: Optional[Callable] = None  # obj -> (ceiling, floor) of the q-fiber


FAMILIES = {
    "An": Family("n", int, schemes.count_an, schemes.envelopes_an, schemes.an_source),
    "Gn": Family("n", int, schemes.count_gn, schemes.envelopes_gn, schemes.gn_source),
    "pell": Family(
        "delta", schemes.PellConic, schemes.count_pell, schemes.envelopes_pell,
        schemes.pell_source, schemes.qfiber_envelopes_pell,
    ),
}
# spec head -> the keys it takes
SPEC_KEYS = {head: (fam.key,) for head, fam in FAMILIES.items()} | {
    "curve": ("a", "b", "file", "label"),
    "monoid": ("file",),
}


def _positive(flag: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be positive, not {value}")
    return value


def _excluded(ns: argparse.Namespace) -> frozenset[int]:
    """--exclude '2,3' -> {2, 3}; every entry must be prime.  Each is tested
    once: here, unless the command builds a PrimePowerDomain (fit, counts) or
    runs a census from the set, which test it themselves."""
    try:
        primes = frozenset(int(tok) for tok in ns.exclude.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"--exclude must be comma-separated integers, not {ns.exclude!r}") from None
    if not (ns.subcommand == "fit" or ns.action in ("counts", "census")):
        check_excluded(primes)
    return primes


def _parse_box(text: str) -> tuple[int, int]:
    """'LO:HI' -> (LO, HI), integers with LO <= HI."""
    try:
        lo, hi = map(int, text.split(":"))
        if lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise ValueError(f"--box must be LO:HI with integers LO <= HI, not {text!r}")


def _domain_args(ns: argparse.Namespace) -> tuple[frozenset[int], str, int]:
    """A PrimePowerDomain's arguments from --exclude, --primes-only and --limit, validated."""
    if ns.limit < 2:
        raise ValueError(f"--limit must be at least 2, not {ns.limit}")
    return _excluded(ns), "primes_only" if ns.primes_only else "prime_powers", ns.limit


def _parse_spec(spec: str, heads) -> tuple[str, dict[str, str]]:
    """Split 'head:k=v,...' into its head and arguments; 'monoid:PATH' reads
    as 'monoid:file=PATH'.  Refuses a head outside heads, a key its head does
    not take, a repeated key and an empty value."""
    head, colon, rest = spec.partition(":")
    if head not in heads:
        raise ValueError(f"unknown spec head {head!r} in {spec!r}; expected one of {', '.join(heads)}")
    if head == "monoid" and colon and not rest.startswith("file="):
        rest = "file=" + rest
    keys = SPEC_KEYS[head]
    kv: dict[str, str] = {}
    for part in rest.split(","):
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"malformed spec {spec!r}; write {head}:key=value,...")
        if key not in keys:
            takes = ", ".join(k + "=" for k in keys)
            raise ValueError(f"spec {spec!r} has unknown key {key!r}; {head} takes {takes}")
        if key in kv:
            raise ValueError(f"spec {spec!r} repeats {key}=")
        if not value:
            raise ValueError(f"spec {spec!r} gives no value for {key}=")
        kv[key] = value
    return head, kv


def _int_arg(spec: str, kv: dict[str, str], key: str) -> int:
    if key not in kv:
        raise ValueError(f"spec {spec!r} needs {key}=")
    try:
        return int(kv[key])
    except ValueError:
        raise ValueError(f"spec {spec!r} needs an integer {key}=, not {kv[key]!r}") from None


def _family(spec: str) -> tuple[Family, object]:
    """Parse 'An:n=3', 'Gn:n=5' or 'pell:delta=5'."""
    head, kv = _parse_spec(spec, FAMILIES)
    fam = FAMILIES[head]
    return fam, fam.build(_int_arg(spec, kv, fam.key))


def _load_curve(path: str, label: str) -> elliptic.EllipticCurve:
    """The curve named label, or the first curve, of a label,a,b CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        for n, row in enumerate(csv.reader(fh), 1):
            if not row or row[0].strip().startswith("#") or row[0].strip() == "label":
                continue
            try:
                name, a, b = row[0].strip(), int(row[1]), int(row[2])
            except (IndexError, ValueError):
                text = ",".join(row)
                raise ValueError(
                    f"{path} row {n}: need label,a,b with integers a and b, not {text!r}"
                ) from None
            if not label or name == label:
                return elliptic.EllipticCurve(a, b, name)
    raise ValueError(f"curve {label!r} not found in {path}")


def _source(spec: str, excluded: frozenset[int], kind: str, limit: int) -> fit.SequenceSource:
    """Build a sequence source from a spec string over its one domain; a
    curve's domain also excludes the curve's bad primes.

    Forms: 'An:n=3', 'Gn:n=5', 'pell:delta=5', 'curve:a=-1,b=0',
    'curve:file=PATH,label=L', 'monoid:file=PATH' or 'monoid:PATH'.
    """
    if spec.partition(":")[0] in FAMILIES:
        fam, obj = _family(spec)
        return fam.source(obj, PrimePowerDomain(excluded, kind, limit))
    head, kv = _parse_spec(spec, SPEC_KEYS)
    if head == "monoid":
        return monoid.zlift_source(monoid.load_scheme(kv["file"]), PrimePowerDomain(excluded, kind, limit))
    if "file" in kv:
        if "a" in kv or "b" in kv:
            raise ValueError(f"spec {spec!r} takes either a=,b= or file=, not both")
        curve = _load_curve(kv["file"], kv.get("label", ""))
    else:
        a, b = _int_arg(spec, kv, "a"), _int_arg(spec, kv, "b")
        curve = elliptic.EllipticCurve(a, b, kv.get("label", ""))
    return elliptic.count_source(curve, PrimePowerDomain(excluded | curve.bad_primes, kind, limit))


# --- subcommand handlers -------------------------------------------------------


def _emit_counts(fmt: str, rows: list[tuple]) -> None:
    """Print (p, m, q, count) rows as plain text, CSV or JSON."""
    header = ("p", "m", "q", "count")
    if fmt == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows], indent=2, sort_keys=True))
    elif fmt == "csv":
        csv.writer(sys.stdout).writerows([header, *rows])
    else:
        for r in rows:
            print(" ".join(map(str, r)))


def _print_envelopes(pair, qfiber=None) -> None:
    """Print a (ceiling, floor) pair, then the q-fiber's pair when given."""
    for prefix, env in (("", pair), ("qfiber ", qfiber)):
        if env:
            print(f"{prefix}ceiling: {format_puiseux(env[0])}")
            print(f"{prefix}floor: {format_puiseux(env[1])}")


def _run_zeta(ns: argparse.Namespace) -> int:
    want = 2 if ns.action == "tensor" else 1
    if len(ns.expr) != want:
        raise ValueError(f"zeta {ns.action} takes {want} expression(s), got {len(ns.expr)}")
    if ns.action == "soule":
        print(format_product(soule_zeta(parse_puiseux(ns.expr[0]))))
    elif ns.action == "tensor":
        print(format_product(tensor(parse_product(ns.expr[0]), parse_product(ns.expr[1]))))
    elif ns.action == "reflect":
        sign, z = reflect(parse_product(ns.expr[0]), parse_fraction(ns.d))
        print(f"sign {sign if sign is not None else 'none'}: {format_product(z)}")
    else:
        res = check_functional_equation(parse_product(ns.expr[0]), parse_fraction(ns.d))
        print(f"symmetric {str(res.symmetric).lower()} sign {'none' if res.sign is None else res.sign}")
    return EXIT_OK


def _run_monoid(ns: argparse.Namespace) -> int:
    excluded, kind, limit = _domain_args(ns)
    x = monoid.load_scheme(ns.input_path)
    if ns.action == "counts":
        points = PrimePowerDomain(excluded, kind, limit).points
        _emit_counts(ns.fmt, [(pt.p, pt.m, pt.q, monoid.count_f1n(x, pt.q - 1)) for pt in points])
    elif ns.action == "envelopes":
        pair = (monoid.ceiling_poly(x), monoid.floor_poly(x, excluded))
        _print_envelopes(pair, monoid.qfiber_ceiling_floor(x))
    else:
        ceiling, floor = monoid.zeta_product(x), monoid.zeta_floor_product(x, excluded)
        print(f"zeta ceiling: {format_product(ceiling)}")
        print(f"zeta floor: {format_product(floor)}")
    return EXIT_OK


def _run_family(ns: argparse.Namespace) -> int:
    fam, obj = _family(ns.family_spec)
    excluded, kind, limit = _domain_args(ns)
    if ns.action == "counts":
        points = PrimePowerDomain(excluded, kind, limit).points
        _emit_counts(ns.fmt, [(pt.p, pt.m, pt.q, fam.count(obj, pt.p, pt.m)) for pt in points])
    else:
        _print_envelopes(fam.envelopes(obj, excluded), fam.qfiber(obj) if fam.qfiber else None)
    return EXIT_OK


def _run_curve(ns: argparse.Namespace) -> int:
    excluded = _excluded(ns)
    m, xmax = _positive("--m", ns.m), _positive("--xmax", ns.xmax)
    if ns.action in ("count", "classify") and ns.p is None:
        raise ValueError(f"curve {ns.action} needs --p")
    if ns.a is not None and ns.b is not None:
        curve = elliptic.EllipticCurve(ns.a, ns.b, ns.label)
    elif ns.input_path:
        curve = _load_curve(ns.input_path, ns.label)
    else:
        raise ValueError("need either --a/--b or --in with --label")
    if ns.action == "count":
        print(elliptic.count_extension(curve, ns.p, m))
    elif ns.action == "classify":
        print(elliptic.classify_prime(curve, ns.p))
    else:
        rep = elliptic.census(curve, xmax, curve.bad_primes | excluded)
        if ns.output_path:
            with open(ns.output_path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([("p", "a_p", "class"), *rep.rows])
        summary = dict(x_max=rep.x_max, counts=rep.counts(),
                       ratio_plus=rep.ratio_plus, ratio_minus=rep.ratio_minus)
        text = json.dumps(summary, indent=2, sort_keys=True)
        if ns.summary_path:
            with open(ns.summary_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        print(text)
    return EXIT_OK


def _run_fit(ns: argparse.Namespace) -> int:
    witnesses = _positive("--witnesses", ns.witnesses)
    lo, hi = _parse_box(ns.box)
    if ns.c_from > ns.c_to:
        raise ValueError(f"--c-from {ns.c_from} is greater than --c-to {ns.c_to}")
    if ns.action == "verify" and not ns.candidate.strip():
        raise ValueError("fit verify needs --candidate")
    cand = parse_puiseux(ns.candidate) if ns.action == "verify" else None
    # refused before the source is built, since building it counts every point
    if ns.action == "search":
        fit.check_box(ns.degree, lo, hi)
    elif ns.action == "reject-linear":
        fit.check_c_range(ns.c_from, ns.c_to)
    src = _source(ns.source_spec, *_domain_args(ns))
    if ns.action == "verify":
        check = fit.verify_ceiling if ns.mode == "ceiling" else fit.verify_floor
        v = check(cand, src, witnesses, puiseux_mode=ns.puiseux)
        print(v.summary())
        if v.status == fit.INSUFFICIENT_WITNESSES:
            return EXIT_NO_WITNESSES
        return EXIT_OK if v.verified else EXIT_VIOLATED  # violated, or f(1) not an integer
    if ns.action == "search":
        rep = fit.search_polynomial(src, ns.degree, lo, hi, witnesses)
        print(f"tested {rep.candidates_tested} candidates to limit {rep.scanned_limit}")
        for kind in ("ceiling", "floor"):
            names = ", ".join(format_puiseux(c) for c in getattr(rep, kind)) or "none"
            note = "  [ambiguous: limit too small]" if getattr(rep, kind + "_ambiguous") else ""
            print(f"{kind}: {names}{note}")
        return EXIT_OK
    for r in fit.reject_linear_family(src, ns.c_from, ns.c_to, witnesses):
        print(f"c={r.c}: ceiling {r.ceiling.status}; floor {r.floor.status}")
    return EXIT_OK


def _run_repro(ns: argparse.Namespace) -> int:
    from . import acceptance

    last = len(acceptance.ALL)
    if ns.criterion is not None and not 1 <= ns.criterion <= last:
        raise ValueError(f"--criterion must be 1..{last}, not {ns.criterion}")
    results = acceptance.run_all(None if ns.criterion is None else [ns.criterion], stream=sys.stdout)
    return EXIT_OK if all(r.passed for r in results) else EXIT_BAD_INPUT


# --- argument parsing -----------------------------------------------------------

def _add_domain(p: argparse.ArgumentParser) -> None:
    """The options that _domain_args reads."""
    p.add_argument("--limit", type=int, default=10000)
    p.add_argument("--exclude", default="", help="comma-separated primes to exclude")
    p.add_argument("--primes-only", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="azw", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    z = sub.add_parser("zeta", help="formal-product operations")
    z.set_defaults(run=_run_zeta)
    z.add_argument("action", choices=("soule", "tensor", "reflect", "funceq"))
    z.add_argument("expr", nargs="+")
    z.add_argument("--d", default="1", help="reflection point for reflect/funceq")

    mo = sub.add_parser("monoid", help="monoid-scheme counts and envelopes")
    mo.set_defaults(run=_run_monoid)
    mo.add_argument("action", choices=("counts", "envelopes", "zeta"))
    mo.add_argument("--in", dest="input_path", required=True)

    fa = sub.add_parser("family", help="explicit family sweeps")
    fa.set_defaults(run=_run_family)
    fa.add_argument("family_spec", help="An:n=3 | Gn:n=5 | pell:delta=5")
    fa.add_argument("action", choices=("counts", "envelopes"))
    for p in (mo, fa):
        _add_domain(p)
        p.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"), default="plain")

    cu = sub.add_parser("curve", help="elliptic-curve counts and census")
    cu.set_defaults(run=_run_curve)
    cu.add_argument("action", choices=("count", "classify", "census"))
    cu.add_argument("--in", dest="input_path", default="")
    cu.add_argument("--label", default="")
    for flag in ("--a", "--b", "--p"):
        cu.add_argument(flag, type=int, default=None)
    cu.add_argument("--m", type=int, default=1)
    cu.add_argument("--xmax", type=int, default=1000)
    cu.add_argument("--out", dest="output_path", default="")
    cu.add_argument("--summary", dest="summary_path", default="")
    cu.add_argument("--exclude", default="", help="comma-separated primes to exclude")

    ft = sub.add_parser("fit", help="empirical envelope verification")
    ft.set_defaults(run=_run_fit)
    ft.add_argument("action", choices=("verify", "search", "reject-linear"))
    ft.add_argument("--candidate", default="")
    ft.add_argument(
        "--source", dest="source_spec", required=True,
        help="An:n=3 | Gn:n=5 | pell:delta=5 | curve:a=-1,b=0 | curve:file=PATH[,label=L] | monoid:PATH",
    )
    ft.add_argument("--mode", choices=("ceiling", "floor"), default="ceiling")
    ft.add_argument("--puiseux", action="store_true")
    ft.add_argument("--degree", type=int, default=1)
    ft.add_argument(
        "--box", default="-5:5",
        help="coefficient range, written --box=LO:HI as in --box=-3:3 (a separate -3:3 is read as an option)",
    )
    ft.add_argument("--c-from", dest="c_from", type=int, default=0)
    ft.add_argument("--c-to", dest="c_to", type=int, default=0)
    ft.add_argument("--witnesses", type=int, default=3)
    _add_domain(ft)

    rp = sub.add_parser("repro", help="run the acceptance suite")
    rp.set_defaults(run=_run_repro)
    rp.add_argument("--criterion", type=int, default=None, help="run only this criterion")
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        code = ns.run(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: not bad input.  Point stdout at devnull so
        # the flush at interpreter exit finds no closed pipe, and exit as a
        # shell reports a process ended by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
