"""Span tracer that instruments kida from outside, at run time.

``Tracer.install`` replaces module attributes (and a few class methods)
of an imported kida with wrappers that open a span per call, count calls,
cache hits and typed errors, and then call the original.  Calls inside a
module reach the wrappers too, because they look their callees up by
global name at call time; the names that ``chargroup`` and ``splitting``
bind with ``from .intlinalg import ...`` are wrapped in those modules as
well.  Nothing under ``src/`` changes, and a name a later kida no longer
has is skipped, so its metrics read 0.

Spans carry an id, the id of their parent, a start, an end and the
request they belong to; they stay in memory until the worker prints them.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, class or None, attribute, metric name, open a span?)
LOCALFACTOR_FUNCS = ("m_single", "m_extension", "h_char", "h_v",
                     "restrict_type", "check_tower_additivity",
                     "parse_char_spec", "parse_local_type",
                     "describe_local_type")
# the per-character helpers run ~10^5 times a sweep: counted, not spanned
LOCALFACTOR_SPANS = ("m_extension", "h_v", "restrict_type",
                     "check_tower_additivity", "parse_local_type",
                     "describe_local_type")
LATTICE_METHODS = ("contains", "contains_lattice", "det", "intersect", "sum",
                   "key", "rank")
HOOKS = (
    [("qexp", None, "_eta24_coefficients", "qexp.eta24", True),
     ("qexp", None, "frobenius_data", "qexp.frobenius_data", True),
     ("qexp", "EllipticCurve", "count_points", "qexp.count_points", True),
     ("arith", None, "unit_group", "arith.unit_group", True),
     ("arith", "UnitGroup", "log", "arith.log", True),
     ("splitting", None, "parse_field_spec", "splitting.parse_field_spec",
      True),
     ("splitting", None, "_resolve_degree_subgroup",
      "splitting.degree_cache", False),
     ("splitting", None, "efg", "splitting.efg", True),
     ("splitting", None, "tower_places", "splitting.tower_places", True),
     ("splitting", None, "ramified_set", "splitting.ramified_set", True),
     ("chargroup", None, "subgroups", "chargroup.subgroups", True),
     ("chargroup", None, "check_group_identity",
      "chargroup.check_group_identity", True),
     ("intlinalg", None, "hnf", "intlinalg.hnf", True),
     ("transition", None, "transition", "transition.transition", True),
     ("transition", None, "compose", "transition.compose", True),
     ("verify", None, "group_identity_suite", "verify.group-identity", True),
     ("verify", None, "tower_additivity_suite", "verify.tower-additivity",
      True),
     ("verify", None, "hasse_suite", "verify.hasse", True),
     ("verify", None, "path_agreement_suite", "verify.path-agreement", True)]
    + [("localfactor", None, f, f"localfactor.{f}", f in LOCALFACTOR_SPANS)
       for f in LOCALFACTOR_FUNCS]
    # lattice operations are counted, not spanned: they are many and tiny
    + [("intlinalg", None, f, "intlinalg.lattice_op", False)
       for f in ("kernel", "preimage_lattice", "subgroup_lattice")]
    + [("chargroup", None, "subgroup_lattice", "intlinalg.lattice_op", False),
       ("splitting", None, "subgroup_lattice", "intlinalg.lattice_op", False),
       ("splitting", None, "preimage_lattice", "intlinalg.lattice_op", False)]
    + [("intlinalg", "Lattice", m, "intlinalg.lattice_op", False)
       for m in LATTICE_METHODS]
    # the CLI layer only counts the typed errors its handlers raise
    + [("cli", None, f, f"cli.{f}", False)
       for f in ("cmd_tau", "cmd_hv", "cmd_transition", "cmd_verify",
                 "parse_form_spec")]
)

LAYERS = ("cli", "qexp", "arith", "splitting", "chargroup", "intlinalg",
          "localfactor", "transition", "verify")

# Per-layer metrics of the traced run, with units.  ``*.ms`` is self time
# (span time minus the time covered by child spans), summed over the run.
PER_LAYER = (
    [("cli.import_ms", "ms"), ("cli.numpy_import_ms", "ms"),
     ("qexp.eta24.ms", "ms"), ("qexp.eta24.coeffs_built", "count"),
     ("qexp.eta24.hit_ratio", "ratio"),
     ("qexp.count_points.ms", "ms"), ("qexp.count_points.ell_sum", "count"),
     ("qexp.frobenius_data.ms", "ms"),
     ("arith.unit_group.ms", "ms"), ("arith.unit_group.calls", "count"),
     ("arith.unit_group.hit_ratio", "ratio"),
     ("arith.dlog_entries", "count"), ("arith.log.calls", "count"),
     ("arith.log.ms", "ms"),
     ("splitting.parse_field_spec.ms", "ms"),
     ("splitting.degree_cache.hit_ratio", "ratio"),
     ("splitting.efg.ms", "ms"), ("splitting.efg.calls", "count"),
     ("splitting.tower_places.ms", "ms"), ("splitting.tower_layers", "count"),
     ("splitting.ramified_set.ms", "ms"),
     ("chargroup.subgroups.ms", "ms"), ("chargroup.subgroups.calls", "count"),
     ("chargroup.subgroups.emitted", "count"),
     ("chargroup.check_group_identity.ms", "ms"),
     ("intlinalg.hnf.ms", "ms"), ("intlinalg.hnf.calls", "count"),
     ("intlinalg.lattice_ops", "count"),
     ("localfactor.ms", "ms"), ("localfactor.calls", "count"),
     ("transition.ms", "ms"), ("transition.compose.calls", "count"),
     ("verify.group-identity.ms", "ms"), ("verify.tower-additivity.ms", "ms"),
     ("verify.hasse.ms", "ms"), ("verify.path-agreement.ms", "ms")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.spans", "count"), ("trace.overhead_ratio", "ratio")]
)


def dlog_entries(n: int) -> int:
    """Entries of the per-prime-power dlog tables of (Z/n)^*: phi(q^e)
    for odd q, and 2^(e-2) (the 5-part) for 2^e with e >= 2."""
    total, q = 0, 2
    while n > 1:
        if q * q > n:
            q = n
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            if q == 2:
                total += 2 if e == 2 else (2 ** (e - 2) if e > 2 else 0)
            else:
                total += (q - 1) * q ** (e - 1)
        q += 1
    return total


def _on_eta24(tr, args, result, miss):
    if miss:
        tr.count("qexp.eta24.coeffs_built", args[0])


def _on_count_points(tr, args, result, miss):
    tr.count("qexp.count_points.ell_sum", args[1])


def _on_unit_group(tr, args, result, miss):
    if miss:
        tr.count("arith.dlog_entries", dlog_entries(args[0]))


def _on_tower_places(tr, args, result, miss):
    tr.count("splitting.tower_layers", len(result.g_layers))


def _on_subgroups(tr, args, result, miss):
    tr.count("chargroup.subgroups.emitted", len(result))


ON_CALL = {"qexp.eta24": _on_eta24, "qexp.count_points": _on_count_points,
           "arith.unit_group": _on_unit_group,
           "splitting.tower_places": _on_tower_places,
           "chargroup.subgroups": _on_subgroups}


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []     # [id, parent, name, start, end, req]
        self.counters: dict[str, float] = {}
        self.request: int | None = None
        self._stack: list[int] = []
        self._errors: list[BaseException] = []
        self._error_type: type = ()

    def count(self, key: str, n: float = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, time.perf_counter(), None, self.request]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list):
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def _error(self, layer: str, exc: BaseException):
        """Count a typed error once, at the innermost wrapper it leaves."""
        if not any(e is exc for e in self._errors):
            self._errors.append(exc)
            self.count(f"{layer}.errors")

    def wrap(self, owner, attr: str, name: str, spanned: bool) -> bool:
        original = getattr(owner, attr, None)
        if original is None:
            return False
        tracer = self
        layer = name.split(".")[0]
        cache_info = getattr(original, "cache_info", None)
        on_call = ON_CALL.get(name)

        def wrapper(*args, **kwargs):
            hits = cache_info().hits if cache_info else 0
            span = tracer._open(name) if spanned else None
            try:
                result = original(*args, **kwargs)
            except tracer._error_type as exc:
                tracer._error(layer, exc)
                raise
            finally:
                if span is not None:
                    tracer._close(span)
                tracer.count(f"{name}.calls")
            hit = bool(cache_info) and cache_info().hits > hits
            if hit:
                tracer.count(f"{name}.hits")
            if on_call:
                on_call(tracer, args, result, bool(cache_info) and not hit)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        return True

    def install(self, kida) -> int:
        """Wrap every hook the imported ``kida`` package has; returns how
        many were wrapped."""
        self._error_type = kida.errors.KidaError
        wrapped = 0
        for mod_name, cls_name, attr, name, spanned in HOOKS:
            try:
                module = importlib.import_module(f"kida.{mod_name}")
            except ImportError:
                continue
            owner = getattr(module, cls_name, None) if cls_name else module
            if owner is not None:
                wrapped += self.wrap(owner, attr, name, spanned)
        return wrapped


def self_times(spans) -> list[float]:
    """Self time of each span, in order: its duration minus the union of
    its children's intervals (clipped to the span).  Span ids must be
    unique across ``spans``."""
    children: dict = {}
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, _, _, start, end, _ in spans:
        covered, lo_run, hi_run = 0.0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counters: dict) -> dict[str, float]:
    """The PER_LAYER values (without the overhead ratio) from spans and
    counters gathered over a traced run."""
    self_ms: dict[str, float] = {}
    for span, t in zip(spans, self_times(spans)):
        self_ms[span[2]] = self_ms.get(span[2], 0.0) + t * 1000.0

    def c(key):
        return counters.get(key, 0)

    def ratio(num, den):
        return c(num) / c(den) if c(den) else 0.0

    def layer_ms(layer):
        return sum(v for k, v in self_ms.items() if k.startswith(layer + "."))

    out = {
        "cli.import_ms": self_ms.get("cli.import", 0.0),
        "cli.numpy_import_ms": self_ms.get("cli.numpy_import", 0.0),
        "qexp.eta24.coeffs_built": c("qexp.eta24.coeffs_built"),
        "qexp.eta24.hit_ratio": ratio("qexp.eta24.hits", "qexp.eta24.calls"),
        "qexp.count_points.ell_sum": c("qexp.count_points.ell_sum"),
        "arith.unit_group.calls": c("arith.unit_group.calls"),
        "arith.unit_group.hit_ratio": ratio("arith.unit_group.hits",
                                            "arith.unit_group.calls"),
        "arith.dlog_entries": c("arith.dlog_entries"),
        "arith.log.calls": c("arith.log.calls"),
        "splitting.degree_cache.hit_ratio": ratio(
            "splitting.degree_cache.hits", "splitting.degree_cache.calls"),
        "splitting.efg.calls": c("splitting.efg.calls"),
        "splitting.tower_layers": c("splitting.tower_layers"),
        "chargroup.subgroups.calls": c("chargroup.subgroups.calls"),
        "chargroup.subgroups.emitted": c("chargroup.subgroups.emitted"),
        "intlinalg.hnf.calls": c("intlinalg.hnf.calls"),
        "intlinalg.lattice_ops": c("intlinalg.lattice_op.calls"),
        "localfactor.ms": layer_ms("localfactor"),
        "localfactor.calls": sum(v for k, v in counters.items()
                                 if k.startswith("localfactor.")
                                 and k.endswith(".calls")),
        "transition.ms": layer_ms("transition"),
        "transition.compose.calls": c("transition.compose.calls"),
        "trace.spans": len(spans),
    }
    for name, unit in PER_LAYER:
        if name.endswith(".ms") and name not in out:
            out[name] = self_ms.get(name[:-3], 0.0)
    for layer in LAYERS:
        out[f"{layer}.errors"] = c(f"{layer}.errors")
    return out
