"""Command-line front end.

Subcommands: monoid (counts/envelopes/zeta from a JSON scheme), family
(punctured-line / punctured-torus / Pell sweeps), curve (counts, prime
classification, census), fit (verify / search / reject-linear), zeta
(soule / tensor / reflect / funceq on parsed expressions), repro (the full
acceptance suite).  Output is deterministic byte-for-byte for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import elliptic, fit, monoid, schemes
from .arith import PrimePowerDomain, enumerate_domain, is_prime
from .puiseux import format_puiseux, parse_fraction, parse_puiseux
from .zeta import check_functional_equation, format_product, parse_product, reflect, soule_zeta, tensor

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_VIOLATED = 2
EXIT_NO_WITNESSES = 3


@dataclass
class RunConfig:
    subcommand: str
    action: str = ""
    expr: tuple[str, ...] = ()
    source_spec: str = ""
    family_spec: str = ""
    input_path: str = ""
    output_path: str = ""
    summary_path: str = ""
    label: str = ""
    a: Optional[int] = None
    b: Optional[int] = None
    p: Optional[int] = None
    m: int = 1
    d: Optional[str] = None
    limit: int = 10000
    xmax: int = 1000
    witnesses: int = 3
    excluded: frozenset[int] = frozenset()
    primes_only: bool = False
    puiseux: bool = False
    mode: str = "ceiling"
    degree: int = 1
    box: tuple[int, int] = (-5, 5)
    c_from: int = 0
    c_to: int = 0
    fmt: str = "plain"
    criterion: Optional[int] = None

    def validate(self) -> None:
        for name in ("limit", "xmax", "witnesses", "m"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.c_from > self.c_to:
            raise ValueError(f"--c-from {self.c_from} is greater than --c-to {self.c_to}")
        for s in self.excluded:
            if not is_prime(s):
                raise ValueError(f"excluded entry {s} is not prime")


def _parse_excluded(text: str) -> frozenset[int]:
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"--exclude must be comma-separated integers, not {text!r}") from None


def _parse_box(text: str) -> tuple[int, int]:
    """'LO:HI' -> (LO, HI), integers with LO <= HI."""
    try:
        lo, hi = map(int, text.split(":"))
        if lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise ValueError(f"--box must be LO:HI with integers LO <= HI, not {text!r}")


def _domain(cfg: RunConfig, extra_excluded: frozenset[int] = frozenset()) -> PrimePowerDomain:
    kind = "primes_only" if cfg.primes_only else "prime_powers"
    return PrimePowerDomain(cfg.excluded | extra_excluded, kind, cfg.limit)


def _spec_args(spec: str) -> tuple[str, dict[str, str]]:
    """Split 'head:k=v,k=v' into its head and arguments."""
    try:
        head, args = spec.split(":", 1)
        return head, dict(part.split("=", 1) for part in args.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed spec {spec!r}") from exc


def _int_arg(spec: str, kv: dict[str, str], key: str) -> int:
    if key not in kv:
        raise ValueError(f"spec {spec!r} needs {key}=")
    try:
        return int(kv[key])
    except ValueError:
        raise ValueError(f"spec {spec!r} needs an integer {key}=, not {kv[key]!r}") from None


def _family(spec: str):
    """Parse 'An:n=3', 'Gn:n=5' or 'pell:delta=5'."""
    head, kv = _spec_args(spec)
    if head == "An":
        return ("An", _int_arg(spec, kv, "n"))
    if head == "Gn":
        return ("Gn", _int_arg(spec, kv, "n"))
    if head == "pell":
        return ("pell", schemes.PellConic(_int_arg(spec, kv, "delta")))
    raise ValueError(f"unknown family {head!r}")


def _load_curve(cfg: RunConfig) -> elliptic.EllipticCurve:
    if cfg.a is not None and cfg.b is not None:
        return elliptic.EllipticCurve(cfg.a, cfg.b, cfg.label)
    if not cfg.input_path:
        raise ValueError("need either --a/--b or --in with --label")
    with open(cfg.input_path, newline="", encoding="utf-8") as fh:
        for n, row in enumerate(csv.reader(fh), 1):
            if not row or row[0].strip().startswith("#") or row[0].strip() == "label":
                continue
            try:
                label, a, b = row[0].strip(), int(row[1]), int(row[2])
            except (IndexError, ValueError):
                row_text = ",".join(row)
                raise ValueError(
                    f"{cfg.input_path} row {n}: need label,a,b with integers a and b, not {row_text!r}"
                ) from None
            if not cfg.label or label == cfg.label:
                return elliptic.EllipticCurve(a, b, label)
    raise ValueError(f"curve {cfg.label!r} not found in {cfg.input_path}")


def _source(cfg: RunConfig) -> fit.SequenceSource:
    """Build a sequence source from a spec string.

    Forms: 'An:n=3', 'Gn:n=5', 'pell:delta=5', 'curve:a=-1,b=0',
    'curve:file=PATH,label=L', 'monoid:file=PATH'.
    """
    spec = cfg.source_spec
    head = spec.split(":", 1)[0]
    if head in ("An", "Gn", "pell"):
        kind, obj = _family(spec)
        dom = _domain(cfg)
        if kind == "An":
            return schemes.an_source(obj, dom)
        if kind == "Gn":
            return schemes.gn_source(obj, dom)
        return schemes.pell_source(obj, dom)
    if head == "curve":
        kv = _spec_args(spec)[1]
        if "file" in kv:
            curve = _load_curve(
                RunConfig("curve", input_path=kv["file"], label=kv.get("label", ""))
            )
        else:
            curve = elliptic.EllipticCurve(_int_arg(spec, kv, "a"), _int_arg(spec, kv, "b"))
        dom = _domain(cfg, extra_excluded=curve.bad_primes)
        if cfg.primes_only:
            return fit.SequenceSource(
                f"#E(F_p), E: {curve.label}", dom, lambda pt: elliptic.count_fp(curve, pt.p)
            )
        return elliptic.count_source(curve, dom)
    if head == "monoid":
        path = spec.split(":", 1)[1]
        if path.startswith("file="):
            path = path[5:]
        x = monoid.load_scheme(path)
        return monoid.zlift_source(x, _domain(cfg))
    raise ValueError(f"unknown source spec {spec!r}")


# --- subcommand handlers -------------------------------------------------------


def _emit_rows(cfg: RunConfig, header: list[str], rows: list[tuple]) -> None:
    if cfg.fmt == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows], indent=2, sort_keys=True))
        return
    if cfg.fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(header)
        w.writerows(rows)
        return
    for r in rows:
        print(" ".join(str(v) for v in r))


def _run_zeta(cfg: RunConfig) -> int:
    want = 2 if cfg.action == "tensor" else 1
    if len(cfg.expr) != want:
        raise ValueError(f"zeta {cfg.action} takes {want} expression(s), got {len(cfg.expr)}")
    if cfg.action == "soule":
        print(format_product(soule_zeta(parse_puiseux(cfg.expr[0]))))
    elif cfg.action == "tensor":
        z = tensor(parse_product(cfg.expr[0]), parse_product(cfg.expr[1]))
        print(format_product(z))
    elif cfg.action == "reflect":
        sign, z = reflect(parse_product(cfg.expr[0]), parse_fraction(cfg.d))
        print(f"sign {sign if sign is not None else 'none'}: {format_product(z)}")
    elif cfg.action == "funceq":
        res = check_functional_equation(parse_product(cfg.expr[0]), parse_fraction(cfg.d))
        sign = res.sign if res.sign is not None else "none"
        print(f"symmetric {str(res.symmetric).lower()} sign {sign}")
    return EXIT_OK


def _run_monoid(cfg: RunConfig) -> int:
    x = monoid.load_scheme(cfg.input_path)
    if cfg.action == "counts":
        rows = [
            (pt.p, pt.m, pt.q, monoid.count_f1n(x, pt.q - 1))
            for pt in enumerate_domain(_domain(cfg))
        ]
        _emit_rows(cfg, ["p", "m", "q", "count"], rows)
    elif cfg.action == "envelopes":
        ceil_poly = monoid.ceiling_poly(x)
        floor_poly = monoid.floor_poly(x, cfg.excluded)
        qc, qf = monoid.qfiber_ceiling_floor(x)
        print(f"ceiling: {format_puiseux(ceil_poly)}")
        print(f"floor: {format_puiseux(floor_poly)}")
        print(f"qfiber ceiling: {format_puiseux(qc)}")
        print(f"qfiber floor: {format_puiseux(qf)}")
    elif cfg.action == "zeta":
        print(f"zeta ceiling: {format_product(monoid.zeta_product(x))}")
        print(
            "zeta floor: "
            + format_product(monoid.zeta_floor_product(x, cfg.excluded))
        )
    return EXIT_OK


def _run_family(cfg: RunConfig) -> int:
    kind, obj = _family(cfg.family_spec)
    if cfg.action == "counts":
        dom = _domain(cfg)
        counters = {
            "An": lambda pt: schemes.count_an(obj, pt.p, pt.m),
            "Gn": lambda pt: schemes.count_gn(obj, pt.p, pt.m),
            "pell": lambda pt: schemes.count_pell(obj, pt.p, pt.m),
        }
        rows = [(pt.p, pt.m, pt.q, counters[kind](pt)) for pt in enumerate_domain(dom)]
        _emit_rows(cfg, ["p", "m", "q", "count"], rows)
    elif cfg.action == "envelopes":
        env = {
            "An": lambda: schemes.envelopes_an(obj, cfg.excluded),
            "Gn": lambda: schemes.envelopes_gn(obj, cfg.excluded),
            "pell": lambda: schemes.envelopes_pell(obj, cfg.excluded),
        }[kind]()
        print(f"ceiling: {format_puiseux(env[0])}")
        print(f"floor: {format_puiseux(env[1])}")
        if kind == "pell":
            qc, qf = schemes.qfiber_envelopes_pell(obj)
            print(f"qfiber ceiling: {format_puiseux(qc)}")
            print(f"qfiber floor: {format_puiseux(qf)}")
    return EXIT_OK


def _run_curve(cfg: RunConfig) -> int:
    curve = _load_curve(cfg)
    if cfg.action in ("count", "classify") and cfg.p is None:
        raise ValueError(f"curve {cfg.action} needs --p")
    if cfg.action == "count":
        print(elliptic.count_extension(curve, cfg.p, cfg.m))
    elif cfg.action == "classify":
        print(elliptic.classify_prime(curve, cfg.p))
    elif cfg.action == "census":
        rep = elliptic.census(curve, cfg.xmax, curve.bad_primes | cfg.excluded)
        if cfg.output_path:
            with open(cfg.output_path, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["p", "a_p", "class"])
                w.writerows(rep.rows)
        summary = {
            "x_max": rep.x_max,
            "counts": rep.counts(),
            "ratio_plus": rep.ratio_plus,
            "ratio_minus": rep.ratio_minus,
        }
        text = json.dumps(summary, indent=2, sort_keys=True)
        if cfg.summary_path:
            with open(cfg.summary_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        print(text)
    return EXIT_OK


def _verdict_exit(v: fit.Verdict) -> int:
    if v.verified:
        return EXIT_OK
    if v.status == fit.INSUFFICIENT_WITNESSES:
        return EXIT_NO_WITNESSES
    return EXIT_VIOLATED  # bound violation, or f(1) not an integer


def _run_fit(cfg: RunConfig) -> int:
    if cfg.action == "verify" and not cfg.expr[0].strip():
        raise ValueError("fit verify needs --candidate")
    src = _source(cfg)
    if cfg.action == "verify":
        cand = parse_puiseux(cfg.expr[0])
        check = fit.verify_ceiling if cfg.mode == "ceiling" else fit.verify_floor
        v = check(cand, src, cfg.witnesses, puiseux_mode=cfg.puiseux)
        print(v.summary())
        return _verdict_exit(v)
    if cfg.action == "search":
        rep = fit.search_polynomial(src, cfg.degree, cfg.box[0], cfg.box[1], cfg.witnesses)
        print(f"tested {rep.candidates_tested} candidates to limit {rep.scanned_limit}")
        for kind, cands, flag in (
            ("ceiling", rep.ceiling, rep.ceiling_ambiguous),
            ("floor", rep.floor, rep.floor_ambiguous),
        ):
            names = ", ".join(format_puiseux(c) for c in cands) or "none"
            note = "  [ambiguous: limit too small]" if flag else ""
            print(f"{kind}: {names}{note}")
        return EXIT_OK
    if cfg.action == "reject-linear":
        reports = fit.reject_linear_family(src, cfg.c_from, cfg.c_to, cfg.witnesses)
        for r in reports:
            print(f"c={r.c}: ceiling {r.ceiling.status}; floor {r.floor.status}")
        return EXIT_OK
    raise ValueError(f"unknown fit action {cfg.action!r}")


def _run_repro(cfg: RunConfig) -> int:
    from . import acceptance

    results = acceptance.run_all(
        numbers=[cfg.criterion] if cfg.criterion else None, stream=sys.stdout
    )
    return EXIT_OK if all(r.passed for r in results) else EXIT_BAD_INPUT


# --- argument parsing -----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--limit", type=int, default=10000)
    p.add_argument("--exclude", default="", help="comma-separated primes to exclude")
    p.add_argument("--witnesses", type=int, default=3)
    p.add_argument("--primes-only", action="store_true")
    p.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"), default="plain")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="azw", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    z = sub.add_parser("zeta", help="formal-product operations")
    z.add_argument("action", choices=("soule", "tensor", "reflect", "funceq"))
    z.add_argument("expr", nargs="+")
    z.add_argument("--d", default="1", help="reflection point for reflect/funceq")

    mo = sub.add_parser("monoid", help="monoid-scheme counts and envelopes")
    mo.add_argument("action", choices=("counts", "envelopes", "zeta"))
    mo.add_argument("--in", dest="input_path", required=True)
    _add_common(mo)

    fa = sub.add_parser("family", help="explicit family sweeps")
    fa.add_argument("family_spec", help="An:n=3 | Gn:n=5 | pell:delta=5")
    fa.add_argument("action", choices=("counts", "envelopes"))
    _add_common(fa)

    cu = sub.add_parser("curve", help="elliptic-curve counts and census")
    cu.add_argument("action", choices=("count", "classify", "census"))
    cu.add_argument("--in", dest="input_path", default="")
    cu.add_argument("--label", default="")
    cu.add_argument("--a", type=int, default=None)
    cu.add_argument("--b", type=int, default=None)
    cu.add_argument("--p", type=int, default=None)
    cu.add_argument("--m", type=int, default=1)
    cu.add_argument("--xmax", type=int, default=1000)
    cu.add_argument("--out", dest="output_path", default="")
    cu.add_argument("--summary", dest="summary_path", default="")
    _add_common(cu)

    ft = sub.add_parser("fit", help="empirical envelope verification")
    ft.add_argument("action", choices=("verify", "search", "reject-linear"))
    ft.add_argument("--candidate", default="")
    ft.add_argument("--source", dest="source_spec", required=True)
    ft.add_argument("--mode", choices=("ceiling", "floor"), default="ceiling")
    ft.add_argument("--puiseux", action="store_true")
    ft.add_argument("--degree", type=int, default=1)
    ft.add_argument(
        "--box", default="-5:5",
        help="coefficient range, written --box=LO:HI as in --box=-3:3 (a separate -3:3 is read as an option)",
    )
    ft.add_argument("--c-from", dest="c_from", type=int, default=0)
    ft.add_argument("--c-to", dest="c_to", type=int, default=0)
    _add_common(ft)

    rp = sub.add_parser("repro", help="run the acceptance suite")
    rp.add_argument("--criterion", type=int, default=None)
    return ap


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=ns.subcommand)
    for name in vars(ns):
        if name == "exclude":
            cfg.excluded = _parse_excluded(ns.exclude)
        elif name == "box":
            cfg.box = _parse_box(ns.box)
        elif name == "expr":
            cfg.expr = tuple(ns.expr)
        elif hasattr(cfg, name):
            setattr(cfg, name, getattr(ns, name))
    if ns.subcommand == "fit" and ns.action == "verify":
        cfg.expr = (ns.candidate,)
    cfg.validate()
    return cfg


def run(cfg: RunConfig) -> int:
    handlers = {
        "zeta": _run_zeta,
        "monoid": _run_monoid,
        "family": _run_family,
        "curve": _run_curve,
        "fit": _run_fit,
        "repro": _run_repro,
    }
    return handlers[cfg.subcommand](cfg)


def main(argv: Optional[list[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(ns)
        return run(cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
