"""Command-line surface: ``tau``, ``hv``, ``transition``, ``verify``.

Each prints a deterministic ``key = value`` document (sorted keys), or
with ``--json`` canonical JSON of the same record.  ``COMMANDS`` holds
each command's handler, help line and options: ``parse_args`` reads argv
from it, and ``_apply_config`` a config file of defaults keyed by the
long flags' names.  ``main`` reads KIDA_PRECISION, the series precision
budget, before any command runs; ``tau`` spends it, and ``delta`` in a
form spec carries it.  Exit codes (README lists each case):
0 success; 1 property violation; 2 usage errors; and a ``KidaError``'s
``exit_code``: 2 domain errors, 3 malformed input, 4 missing local data
in a transition.

Library modules load on first use: each handler imports what it runs, so
``kida tau`` loads ``eta`` alone and only a curve or a table loads
``qexp`` (``eta`` never loads ``arith``, ``qexp`` only in the functions
that call it).  The ``--kind`` and ``--suite`` choices are literal here
for that reason, and tests pin them to ``transition.KINDS`` and
``verify.SUITES``.  ``hv`` and ``transition`` refuse a ``--p`` that is
not an odd prime, as the library's ``splitting.ramified_set`` does.

Run as a program (``main()`` without argv), kida flushes stdout and
stderr and ends the process with ``os._exit`` on every exit path, help
and usage errors included: the interpreter's teardown (module cleanup
and a last collection) would only free memory that the OS frees anyway,
and no atexit handler runs.  ``main(argv)`` returns its code.
"""

from __future__ import annotations

import os
import sys

from .errors import KidaError, SpecParseError, parse_int_fields

# option choices, equal to transition.KINDS and sorted(verify.SUITES)
KIND_CHOICES = ("algebraic", "analytic", "plus", "minus")
SUITE_CHOICES = ("group-identity", "hasse", "path-agreement",
                 "tower-additivity")

def _render(mapping: dict, as_json: bool) -> str:
    if as_json:
        import json
        return json.dumps(mapping, sort_keys=True, separators=(", ", ": "))
    return "\n".join(
        f"{key} = {str(val).lower() if isinstance(val, bool) else val}"
        for key, val in sorted(mapping.items()))


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


def _read_config(path: str, keys) -> dict[str, str]:
    """``key = value`` lines, each key one of ``keys`` and given once."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecParseError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise SpecParseError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise SpecParseError(f"{path}:{lineno}: key {key!r} given twice")
        out[key] = val
    return out


def _apply_config(args):
    """Fill unset options from the config file; flags override a value,
    not its check.  Keys: single-value flags but ``--config``, undashed."""
    if not args.config:
        return
    keys = {flag[2:]: (dest, cast)
            for flag, dest, cast, _ in COMMANDS[args.command][2]
            if cast not in (SWITCH, APPEND) and dest != "config"}
    for key, text in _read_config(args.config, keys).items():
        dest, cast = keys[key]
        try:
            value = _cast(cast, text)
        except ValueError:
            raise SpecParseError(
                f"{args.config}: bad value {text!r} for {key}")
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def parse_form_spec(spec: str):
    """The form (``eta.Delta`` at the KIDA_PRECISION budget, a curve or a
    table) of ``delta`` | ``ec:a1=..,a2=..,a3=..,a4=..,a6=..`` |
    ``table:<path>``; only a curve or a table loads ``qexp``."""
    s = spec.strip()
    if s == "delta":
        from .eta import Delta
        return Delta(_precision())
    if s.startswith("ec:"):
        from .qexp import EllipticCurve
        curve = EllipticCurve(**parse_int_fields(
            spec, s[len("ec:"):], ("a1", "a2", "a3", "a4", "a6")))
        if curve.discriminant() == 0:
            raise SpecParseError("curve is singular (discriminant 0)")
        curve.level     # a discriminant past the factoring bound exits 2 here
        return curve
    if s.startswith("table:"):
        from .qexp import parse_table
        path = s[len("table:"):]
        text = _read_text(path)
        try:
            return parse_table(text)
        except KidaError as exc:    # a malformed line or a prime past a bound
            raise type(exc)(f"{path}: {exc}") from None
    raise SpecParseError(f"bad form spec {spec!r}")


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
    from .eta import tau
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
    from .localfactor import (case_of, describe_local_type,
                              is_local_type_spec, m_extension,
                              parse_local_type)
    if args.form is None:
        raise SpecParseError("hv needs --form")
    if args.e is not None and args.e < 1:
        raise SpecParseError("--e must be >= 1")
    for flag, n in (("--ell", args.ell), ("--p", args.p)):
        if n is not None:
            from .arith import require_prime
            require_prime(flag, n, odd=flag == "--p")
    spec = args.form.strip()
    record: dict[str, object] = {}
    if is_local_type_spec(spec):
        V = parse_local_type(spec, args.p or 0)
    else:
        form = parse_form_spec(spec)
        if args.p is None or args.ell is None:
            raise SpecParseError("hv with a form spec needs --p and --ell")
        if args.ell == args.p:
            raise SpecParseError("--ell must differ from --p")
        from .eta import local_type
        V = local_type(form, args.ell, args.p)
        record.update(form=form.describe(), ell=args.ell)
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
    if args.p is not None:
        record["p"] = args.p
    record.update({name: getattr(V, name) for name in V.hv_fields})
    record.update(e=e, type=describe_local_type(V), h=m_extension(V, e),
                  path=V.path, case=case_of(V, e))
    print(_render(record, args.json))
    return 0


# -- transition -------------------------------------------------------------

def cmd_transition(args) -> int:
    from .splitting import parse_field_spec
    from .arith import require_prime
    from .transition import InvariantRecord, parse_local_types, transition
    for name in ("p", "base", "ext"):
        if getattr(args, name) is None:
            raise SpecParseError(f"transition needs --{name}")
    if args.lam is None or args.mu is None:
        raise SpecParseError("transition needs --lambda and --mu")
    require_prime("--p", args.p, odd=True)
    base_field = parse_field_spec(args.base)
    ext_field = parse_field_spec(args.ext)
    form = parse_form_spec(args.form) if args.form else None
    lam = args.lam if args.mu == 0 else None
    base = InvariantRecord(args.kind or "algebraic", args.mu, lam)
    overrides = parse_local_types(args.local, args.p)
    report = transition(
        p=args.p, base_field=base_field, ext_field=ext_field, base=base,
        form=form, local_types=overrides,
        assert_hypotheses=bool(args.assert_hypotheses))
    print(_render(report.as_mapping(), args.json))
    return 0


# -- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    from .verify import run_suite
    if args.suite is None:
        raise SpecParseError("verify needs --suite")
    result = run_suite(args.suite, seed=args.seed or 0, size=args.size)
    print(_render(result.as_mapping(), args.json))
    return 0 if result.passed else 1


# -- entry -------------------------------------------------------------------

# command -> (handler, help line, options); an option is (flag, dest,
# cast, help), the cast int, str, a tuple of choices, SWITCH or APPEND
SWITCH, APPEND = "switch", "append"
_COMMON = (("--config", "config", str, "file of KEY = VALUE defaults"),
           ("--json", "json", SWITCH, "print the record as JSON"))
COMMANDS = {
    "tau": (cmd_tau, "Fourier coefficient of the eta-product", (
        ("--n", "n", int, "the index, at least 1"),
        ("--mod", "mod", int, "print tau(n) mod this"), *_COMMON)),
    "hv": (cmd_hv, "local table value at a ramified prime", (
        ("--form", "form", str, "delta, ec:..., table:PATH or a local type"),
        ("--p", "p", int, "the prime p"),
        ("--ell", "ell", int, "the ramified prime"),
        ("--e", "e", int, "the ramification index at ell"),
        ("--ext", "ext", str, "field spec that gives e at ell"), *_COMMON)),
    "transition": (cmd_transition, "transport (mu, lambda) up a p-extension", (
        ("--form", "form", str, "delta, ec:... or table:PATH"),
        ("--p", "p", int, "the odd prime p"),
        ("--base", "base", str, "field spec of the base"),
        ("--ext", "ext", str, "field spec of the extension"),
        ("--lambda", "lam", int, "lambda over the base"),
        ("--mu", "mu", int, "mu over the base"),
        ("--kind", "kind", KIND_CHOICES, "kind of the invariants"),
        ("--local", "local", APPEND, "ELL=TYPESPEC, once per ELL"),
        ("--assert-hypotheses", "assert_hypotheses", SWITCH,
         "assert the standard hypotheses"), *_COMMON)),
    "verify": (cmd_verify, "run a property suite", (
        ("--suite", "suite", SUITE_CHOICES, "the suite"),
        ("--seed", "seed", int, "seed of the draws"),
        ("--size", "size", int, "size of the run"), *_COMMON)),
}


def _cast(cast, text: str):
    """An option's value from its text; ValueError if it has none."""
    if isinstance(cast, tuple) and text not in cast:
        raise ValueError
    return text if isinstance(cast, tuple) else cast(text)


def _invalid(cast, text: str) -> str:
    if isinstance(cast, tuple):
        return (f"invalid choice: {text!r} (choose from "
                f"{', '.join(map(repr, cast))})")
    return f"invalid int value: {text!r}"


def _is_flag(text: str, flags) -> bool:
    """argparse's reading of a value as a flag: a dash word that names a
    flag, or holds no space and is no negative number (-5, -.5, -1.5)."""
    number = text[1:].replace(".", "", 1).isdecimal() and text[-1] != "."
    return text[:1] == "-" and text != "-" and not number and (
        " " not in text or text.split("=")[0] in flags)


def _leave(cmd, error: str = ""):
    """Exit 2 on a usage error, else print help and exit 0; ``cmd`` None
    stands for the choice of command."""
    rows = [(name, row[1]) for name, row in COMMANDS.items()] if not cmd \
        else [(flag if cast is SWITCH else f"{flag} " + ("{%s}" % ",".join(
               cast) if isinstance(cast, tuple) else flag[2:].upper()), text)
              for flag, _, cast, text in COMMANDS[cmd][2]]
    usage = "usage: kida " + (" ".join([cmd] + [f"[{a}]" for a, _ in rows])
                              if cmd else "{%s} ..." % ",".join(COMMANDS))
    if error:
        print(usage, f"kida{' ' + cmd if cmd else ''}: error: {error}",
              sep="\n", file=sys.stderr)
        sys.exit(2)
    print(usage, *(f"  {a:<24} {b}" for a, b in rows), sep="\n")
    sys.exit(0)


def parse_args(argv):
    """The namespace of ``command``, ``handler`` and one attribute per
    option of the command's row: None until given, False for a switch.
    A usage error exits 2, and ``-h``/``--help`` prints help and exits 0."""
    from types import SimpleNamespace
    cmd = argv[0] if argv else None
    if cmd not in COMMANDS:
        _leave(None, "" if cmd in ("-h", "--help") else
               "argument command: " + _invalid(tuple(COMMANDS), cmd) if argv
               else "the following arguments are required: command")
    flags = {opt[0]: opt for opt in COMMANDS[cmd][2]}
    args = SimpleNamespace(command=cmd, handler=COMMANDS[cmd][0], **{
        dest: False if cast is SWITCH else None
        for _, dest, cast, _ in flags.values()})
    extras, tokens = [], iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _leave(cmd)
        flag, eq, text = token.partition("=")
        if flag not in flags or eq and flags[flag][2] is SWITCH:
            extras.append(token)
            continue
        _, dest, cast, _ = flags[flag]
        if not eq and cast is not SWITCH:
            text = next(tokens, None)
            if text is None or _is_flag(text, flags):
                _leave(cmd, f"argument {flag}: expected one argument")
        if cast is SWITCH:
            setattr(args, dest, True)
        elif cast is APPEND:
            setattr(args, dest, (getattr(args, dest) or []) + [text])
        elif getattr(args, dest) is not None:
            _leave(cmd, f"argument {flag}: given twice")
        else:
            try:
                setattr(args, dest, _cast(cast, text))
            except ValueError:
                _leave(cmd, f"argument {flag}: {_invalid(cast, text)}")
    if extras:
        _leave(cmd, "unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    """Run one command and return its exit code.  Without ``argv`` this
    is a program run: it reads ``sys.argv`` and ends the process once
    stdout and stderr are flushed, with the code of a return or of a
    ``SystemExit`` (help, usage errors).  If a flush fails, the
    interpreter's own exit reports it, as it would without this."""
    if argv is not None:
        return _run(argv)
    try:
        code = _run(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


def _run(argv) -> int:
    args = parse_args(list(argv))
    try:
        args.precision = _precision()
        _apply_config(args)
        return args.handler(args)
    except KidaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
