"""Command-line surface.

Subcommands: ``tau``, ``hv``, ``transition``, ``verify``.  Output is a
deterministic key/value document (sorted keys, ``key = value`` per
line); ``--json`` renders the same record as canonical JSON.  A config
file supplies defaults for a command's single-value flags, keyed by the
long flag's name and cast by its type; explicit flags win.  The
environment variable KIDA_PRECISION overrides the series precision
budget (default 2000, at most 10000; a larger budget exits 2 before any
work).  ``main`` reads it once, before any command runs, so a value that
is not an integer of at least 1 exits 3 in every command, whether or not
the command spends a budget.

Exit codes: 0 success; 1 property violation (verify); 2 domain errors
(mu != 0, precision, work bounds, missing local type for hv, a transition
field tamely ramified at p); 3 malformed field or form specs, flags or
config values, and config or table files that are missing, unreadable,
not ASCII or malformed; 4 missing local data in a transition.

Library modules load on first use: each handler imports what it runs, so
``kida tau`` loads ``qexp`` alone (``qexp`` loads ``arith`` only in the
curve, table and Frobenius functions that call it), and argparse loads
only when argv is parsed (``build_parser``).
The ``--kind`` and ``--suite`` choices are literal here for that reason,
and tests pin them to ``transition.KINDS`` and ``verify.SUITES``.
"""

from __future__ import annotations

import os
import sys

from .errors import (BoundExceeded, KidaError, MissingLocalType,
                     NotASubfield, NotPPower, SpecParseError,
                     parse_int_fields)

# argparse choices, equal to transition.KINDS and sorted(verify.SUITES)
KIND_CHOICES = ("algebraic", "analytic", "plus", "minus")
SUITE_CHOICES = ("group-identity", "hasse", "path-agreement",
                 "tower-additivity")

_LOCAL_TYPE_PREFIXES = ("sc", "ups:", "ramps:", "special:", "generic:")


def _render(mapping: dict, as_json: bool) -> str:
    if as_json:
        import json
        return json.dumps(mapping, sort_keys=True, separators=(", ", ": "))
    lines = []
    for key in sorted(mapping):
        val = mapping[key]
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{key} = {val}")
    return "\n".join(lines)


def _read_text(path: str) -> str:
    """Text of a config or table file; a file that cannot be read as
    ASCII is a spec error naming the file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise SpecParseError(f"{path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise SpecParseError(f"{path}: not ASCII text")


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecParseError(f"{path}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _config_keys(parser: argparse.ArgumentParser) -> dict[str, tuple]:
    """Config key -> (attribute, caster, choices): the parser's single-value
    options, named as their long flags, except ``--config`` itself."""
    import argparse
    return {action.option_strings[0][2:]:
            (action.dest, action.type or str, action.choices)
            for action in parser._actions
            if type(action) is argparse._StoreAction
            and action.dest != "config"}


def _apply_config(args: argparse.Namespace):
    """Fill unset options from the config file; flags override."""
    if not args.config:
        return
    conf = _read_config(args.config)
    for key, (attr, caster, choices) in args.config_keys.items():
        if getattr(args, attr) is None and key in conf:
            try:
                value = caster(conf[key])
                if choices is not None and value not in choices:
                    raise ValueError
            except ValueError:
                raise SpecParseError(
                    f"{args.config}: bad value {conf[key]!r} for {key}")
            setattr(args, attr, value)


def parse_form_spec(spec: str) -> qexp.ModularFormData:
    """``delta`` | ``ec:a1=..,a2=..,a3=..,a4=..,a6=..`` | ``table:<path>``"""
    from .qexp import (EllipticCurve, delta_form, ec_form, parse_table,
                       table_form)
    s = spec.strip()
    if s == "delta":
        return delta_form()
    if s.startswith("ec:"):
        curve = EllipticCurve(**parse_int_fields(
            spec, s[len("ec:"):], ("a1", "a2", "a3", "a4", "a6")))
        if curve.discriminant() == 0:
            raise SpecParseError("curve is singular (discriminant 0)")
        return ec_form(curve)
    if s.startswith("table:"):
        path = s[len("table:"):]
        text = _read_text(path)
        try:
            return table_form(parse_table(text))
        except KidaError as exc:    # a malformed line or a prime past a bound
            raise type(exc)(f"{path}: {exc}") from None
    raise SpecParseError(f"bad form spec {spec!r}")


def _require_prime(flag: str, n: int, odd: bool = False):
    from . import arith
    if n > arith._INPUT_BOUND:
        raise BoundExceeded(f"{flag} {n} beyond bound {arith._INPUT_BOUND}")
    if not arith.is_prime(n) or (odd and n == 2):
        raise SpecParseError(f"{flag} must be an odd prime" if odd
                             else f"{flag} must be prime")


def _precision() -> int | None:
    env = os.environ.get("KIDA_PRECISION")
    if env is None:
        return None
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:           # a budget below 1 is malformed, not exceeded
        raise SpecParseError(f"bad KIDA_PRECISION value {env!r}")
    return value


# -- tau ------------------------------------------------------------------

def cmd_tau(args) -> int:
    from .qexp import tau
    if args.n is None:
        raise SpecParseError("tau needs --n")
    if args.n < 1:
        raise SpecParseError("--n must be >= 1")
    if args.mod is not None and args.mod < 1:
        raise SpecParseError("--mod must be >= 1")
    value = tau(args.n, args.precision)
    if args.mod is not None:
        value %= args.mod
    print(value)
    return 0


# -- hv -------------------------------------------------------------------

def cmd_hv(args) -> int:
    from .localfactor import (Generic, UnramifiedPS, case_of,
                              describe_local_type, m_extension,
                              parse_local_type)
    if args.form is None:
        raise SpecParseError("hv needs --form")
    if args.e is not None and args.e < 1:
        raise SpecParseError("--e must be >= 1")
    if args.ell is not None:
        _require_prime("--ell", args.ell)
    if args.p is not None:
        _require_prime("--p", args.p)
    spec = args.form.strip()
    record: dict[str, object] = {}
    if spec == "sc" or any(spec.startswith(pre) for pre in
                           _LOCAL_TYPE_PREFIXES if pre != "sc"):
        if spec.startswith(("ups:", "generic:")) and args.p is None:
            raise SpecParseError(f"--p required for {spec!r}")
        V = parse_local_type(spec, args.p or 0)
    else:
        form = parse_form_spec(spec)
        if args.p is None or args.ell is None:
            raise SpecParseError("hv with a form spec needs --p and --ell")
        if args.ell == args.p:
            raise SpecParseError("--ell must differ from --p")
        from .qexp import frobenius_data
        a, c = frobenius_data(form, args.ell, args.p, args.precision)
        V = UnramifiedPS(a, c, args.p)
        record["form"] = form.describe()
        record["ell"] = args.ell
    if args.e is not None:
        e = args.e
    elif args.ext is not None:
        if args.ell is None:
            raise SpecParseError("--ext needs --ell to locate the place")
        from .splitting import efg, parse_field_spec
        e = efg(parse_field_spec(args.ext), args.ell).e
        record["extension"] = args.ext
    else:
        raise SpecParseError("hv needs --e or --ext")
    record["e"] = e
    if args.p is not None:
        record["p"] = args.p
    record["type"] = describe_local_type(V)
    record["h"] = m_extension(V, e)
    record["path"] = "generic" if isinstance(V, Generic) else "table"
    if isinstance(V, UnramifiedPS):
        record["a"] = V.a
        record["c"] = V.c
    record["case"] = case_of(V, e)
    print(_render(record, args.json))
    return 0


# -- transition -------------------------------------------------------------

def _parse_local_overrides(items, p: int) -> dict[int, object]:
    """ELL -> local type; each ELL a prime within the ``--ell`` bound,
    given once.  A prime need not be ramified: a level's local types may
    be listed whole."""
    from . import arith
    from .localfactor import parse_local_type
    out: dict[int, object] = {}
    for item in items or ():
        if "=" not in item:
            raise SpecParseError(f"bad --local {item!r}; use ell=typespec")
        ell_s, typespec = item.split("=", 1)
        try:
            ell = int(ell_s)
        except ValueError:
            raise SpecParseError(f"bad prime in --local {item!r}")
        if ell > arith._INPUT_BOUND:
            raise BoundExceeded(f"--local {item!r}: {ell} beyond bound "
                                f"{arith._INPUT_BOUND}")
        if not arith.is_prime(ell):
            raise SpecParseError(f"--local {item!r}: {ell} is not prime")
        if ell in out:
            raise SpecParseError(f"--local {item!r}: {ell} given twice")
        out[ell] = parse_local_type(typespec, p)
    return out


def cmd_transition(args) -> int:
    from .splitting import parse_field_spec
    from .transition import InvariantRecord, transition
    for name in ("p", "base", "ext"):
        if getattr(args, name) is None:
            raise SpecParseError(f"transition needs --{name}")
    if args.lam is None or args.mu is None:
        raise SpecParseError("transition needs --lambda and --mu")
    _require_prime("--p", args.p, odd=True)
    base_field = parse_field_spec(args.base)
    ext_field = parse_field_spec(args.ext)
    form = parse_form_spec(args.form) if args.form else None
    lam = args.lam if args.mu == 0 else None
    try:
        base = InvariantRecord(args.kind or "algebraic", args.mu, lam)
    except ValueError as exc:   # negative mu or lambda
        raise SpecParseError(str(exc))
    overrides = _parse_local_overrides(args.local, args.p)
    report = transition(
        p=args.p, base_field=base_field, ext_field=ext_field, base=base,
        form=form, local_types=overrides,
        assert_hypotheses=bool(args.assert_hypotheses),
        precision=args.precision)
    print(_render(report.as_mapping(), args.json))
    return 0


# -- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    from .verify import run_suite
    if args.suite is None:
        raise SpecParseError("verify needs --suite")
    result = run_suite(args.suite, seed=args.seed or 0,
                       size=args.size)
    print(_render(result.as_mapping(), args.json))
    return 0 if result.passed else 1


# -- entry -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    import argparse
    ap = argparse.ArgumentParser(
        prog="kida",
        description="Exact transition formulas for Iwasawa invariants "
                    "under p-extensions")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tau", help="Fourier coefficient of the eta-product")
    t.add_argument("--n", type=int)
    t.add_argument("--mod", type=int)
    t.add_argument("--config")
    t.add_argument("--json", action="store_true")
    t.set_defaults(handler=cmd_tau, config_keys=_config_keys(t))

    h = sub.add_parser("hv", help="local table value at a ramified prime")
    h.add_argument("--form")
    h.add_argument("--p", type=int)
    h.add_argument("--ell", type=int)
    h.add_argument("--e", type=int)
    h.add_argument("--ext")
    h.add_argument("--config")
    h.add_argument("--json", action="store_true")
    h.set_defaults(handler=cmd_hv, config_keys=_config_keys(h))

    tr = sub.add_parser("transition",
                        help="transport (mu, lambda) along a p-extension")
    tr.add_argument("--form")
    tr.add_argument("--p", type=int)
    tr.add_argument("--base")
    tr.add_argument("--ext")
    tr.add_argument("--lambda", dest="lam", type=int)
    tr.add_argument("--mu", type=int)
    tr.add_argument("--kind", choices=KIND_CHOICES)
    tr.add_argument("--local", action="append", metavar="ELL=TYPESPEC")
    tr.add_argument("--assert-hypotheses", action="store_true")
    tr.add_argument("--config")
    tr.add_argument("--json", action="store_true")
    tr.set_defaults(handler=cmd_transition, config_keys=_config_keys(tr))

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument("--suite", choices=SUITE_CHOICES)
    v.add_argument("--seed", type=int)
    v.add_argument("--size", type=int)
    v.add_argument("--config")
    v.add_argument("--json", action="store_true")
    v.set_defaults(handler=cmd_verify, config_keys=_config_keys(v))
    return ap


_EXIT_CODES: list[tuple[type, int]] = [
    (MissingLocalType, 4),
    (SpecParseError, 3),
    (NotASubfield, 3),
    (NotPPower, 3),
]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.precision = _precision()
        _apply_config(args)
        return args.handler(args)
    except KidaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                return code
        return 2


if __name__ == "__main__":
    sys.exit(main())
