"""The traced run's span recorder and the per-layer metrics derived from it.

`Tracer.install` wraps public functions of azw's modules, including every
other module's binding of the same function (`schemes.is_prime`,
`schemes.enumeration_field`, `elliptic.build_field`, ...), so that calls made
inside the program are seen too.  Each call of a wrapped function records one
span (name, start, end, parent) in memory; `arith.is_prime` is only counted,
because it is called too often for a span to be cheap.  `uninstall` restores
every binding.  A name that a later version of azw no longer has is skipped,
and the metrics that depend on it read 0.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Every `*_s` metric is self time, except `fit.values_s`
(count sequence materialisation, including the traces it computes) and
`fit.search_s` (whole searches), which are inclusive.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import azw

# (module, attribute, span name); "Class.method" wraps the class attribute
WRAPPED = (
    ("arith", "build_field", "arith.field"),
    ("arith", "enumeration_field", "arith.field"),
    ("arith", "sieve", "arith.sieve"),
    ("schemes", "count_pell", "schemes.count_pell"),
    ("schemes", "count_pell_oracle", "schemes.pell_oracle"),
    ("elliptic", "count_extension_oracle", "elliptic.ext_oracle"),
    ("elliptic", "EllipticCurve.trace", "elliptic.trace"),
    ("elliptic", "classify_prime", "elliptic.classify"),
    ("puiseux", "PuiseuxPoly.floor_eval", "puiseux.floor_eval"),
    ("puiseux", "PuiseuxPoly.ceil_eval", "puiseux.ceil_eval"),
    ("puiseux", "parse_puiseux", "puiseux.parse_format"),
    ("puiseux", "format_puiseux", "puiseux.parse_format"),
    ("fit", "verify_ceiling", "fit.verdict"),
    ("fit", "verify_floor", "fit.verdict"),
    ("fit", "SequenceSource.values", "fit.values"),
    ("fit", "search_polynomial", "fit.search"),
    ("fit", "reject_linear_family", "fit.search"),
    ("monoid", "ceiling_poly", "monoid.closed_forms"),
    ("monoid", "floor_poly", "monoid.closed_forms"),
    ("monoid", "zeta_product", "monoid.closed_forms"),
    ("zeta", "soule_zeta", "zeta.product"),
    ("zeta", "format_product", "zeta.product"),
    ("zeta", "parse_product", "zeta.product"),
)
COUNTED = (("arith", "is_prime", "arith.is_prime"),)
MODULES = ("arith", "puiseux", "zeta", "monoid", "schemes", "elliptic", "fit")

def _resolve(module, attr):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.points_scanned = 0
        self._point_index: dict[int, tuple] = {}  # id(src) -> (src, {q: position})
        self.candidates = 0
        self.survivors = 0
        self._undo: list = []

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        observers = {
            "arith.field": self._observe_field,
            "schemes.pell_oracle": self._observe_pell,
            "elliptic.trace": self._observe_trace,
            "fit.verdict": self._observe_verdict,
            "fit.search": self._observe_search,
        }
        for module_name, attr, name in WRAPPED:
            self._wrap_everywhere(module_name, attr, lambda f, n=name: self._span(f, n, observers.get(n)))
        for module_name, attr, name in COUNTED:
            self._wrap_everywhere(module_name, attr, lambda f, n=name: self._count(f, n))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap_everywhere(self, module_name: str, attr: str, make) -> None:
        owner, name = _resolve(getattr(azw, module_name, None), attr)
        original = owner.__dict__.get(name) if owner is not None else None
        if original is None:
            return
        wrapper = make(original)
        owners = [owner]
        if "." not in attr:  # also every other module's binding of the same function
            owners += [m for m in (azw, *(getattr(azw, n) for n in MODULES))
                       if m is not owner and m.__dict__.get(name) is original]
        for target in owners:
            setattr(target, name, wrapper)
            self._undo.append((target, name, original))

    def _count(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, name: str, observe):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, stack = self.span_name, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return spanned

    # --- observers: counts that need a call's arguments or result ----------------

    def _observe_field(self, args, kwargs, out):
        self.keys["fields"].add((args[0], args[1]))

    def _observe_pell(self, args, kwargs, out):
        self.keys["pell_fields"].add((args[1], args[2]))

    def _observe_trace(self, args, kwargs, out):
        curve, p = args[0], args[1]
        self.keys["traces"].add((curve.a, curve.b, p))

    def _observe_verdict(self, args, kwargs, verdict):
        src = args[1] if len(args) > 1 else kwargs["src"]
        if id(src) not in self._point_index:  # keeps src alive, so its id stays unique
            self._point_index[id(src)] = (src, {pt.q: i for i, (pt, _) in enumerate(src.values())})
        index = self._point_index[id(src)][1]
        if verdict.violation is not None:
            self.points_scanned += index[verdict.violation.n] + 1
        elif verdict.status in ("verified", "insufficient_witnesses"):
            self.points_scanned += len(index)

    def _observe_search(self, args, kwargs, out):
        if isinstance(out, list):  # reject_linear_family: one candidate per c
            self.candidates += len(out)
            self.survivors += sum(r.ceiling.verified + r.floor.verified for r in out)
        else:
            self.candidates += out.candidates_tested
            self.survivors += len(out.ceiling) + len(out.floor)

    # --- results -----------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write the spans (name, start, end, parent) recorded so far."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), name=np.frombuffer(self.span_name, np.uint16),
                     start=np.frombuffer(self.start, np.int64), end=np.frombuffer(self.end, np.int64),
                     parent=np.frombuffer(self.parent, np.int64))

    def metrics(self) -> dict[str, float]:
        name = np.frombuffer(self.span_name, np.uint16).astype(np.int64)
        dur = (np.frombuffer(self.end, np.int64) - np.frombuffer(self.start, np.int64)) / 1e9
        parent = np.frombuffer(self.parent, np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        size = len(self.names)
        self_s = dict(zip(self.names, np.bincount(name, weights=dur - child, minlength=size)))
        incl_s = dict(zip(self.names, np.bincount(name, weights=dur, minlength=size)))
        calls = dict(zip(self.names, np.bincount(name, minlength=size)))

        def ratio(a, b):
            return a / b if b else 0.0

        def s(key, table=self_s):
            return float(table.get(key, 0.0))

        evals = int(calls.get("puiseux.floor_eval", 0) + calls.get("puiseux.ceil_eval", 0))
        eval_s = s("puiseux.floor_eval") + s("puiseux.ceil_eval")
        pell_calls = int(calls.get("schemes.pell_oracle", 0))
        traces = len(self.keys["traces"])
        return {
            "arith.field_s": s("arith.field"),
            "arith.fields": len(self.keys["fields"]),
            "arith.is_prime_calls": self.counts["arith.is_prime"],
            "arith.sieve_s": s("arith.sieve"),
            "schemes.count_pell_s": s("schemes.count_pell"),
            "schemes.pell_oracle_s": s("schemes.pell_oracle"),
            "schemes.pell_oracle_calls": pell_calls,
            "schemes.pell_calls_per_field": ratio(pell_calls, len(self.keys["pell_fields"])),
            "elliptic.ext_oracle_s": s("elliptic.ext_oracle"),
            "elliptic.ext_oracle_calls": int(calls.get("elliptic.ext_oracle", 0)),
            "elliptic.trace_s": s("elliptic.trace"),
            "elliptic.traces": traces,
            "elliptic.trace_us_per_prime": ratio(s("elliptic.trace") * 1e6, traces),
            "elliptic.classify_s": s("elliptic.classify"),
            "puiseux.floor_evals": int(calls.get("puiseux.floor_eval", 0)),
            "puiseux.ceil_evals": int(calls.get("puiseux.ceil_eval", 0)),
            "puiseux.eval_s": eval_s,
            "puiseux.eval_us": ratio(eval_s * 1e6, evals),
            "puiseux.parse_format_s": s("puiseux.parse_format"),
            "fit.verdicts": int(calls.get("fit.verdict", 0)),
            "fit.points_scanned": self.points_scanned,
            "fit.evals_per_point": ratio(evals, self.points_scanned),
            "fit.scan_self_s": s("fit.verdict"),
            "fit.values_s": s("fit.values", incl_s),
            "fit.candidates": self.candidates,
            "fit.survivors_per_candidate": ratio(self.survivors, self.candidates),
            "fit.search_s": s("fit.search", incl_s),
            "monoid.closed_forms_s": s("monoid.closed_forms"),
            "zeta.product_s": s("zeta.product"),
        }
