"""Every public name in src/kida is used by the package itself, every
function in it runs on a documented path, and every ``raise`` in it is
reached on one, or listed with the reason it is not.  Every ``raise``
names a ``kida.errors`` class, and each library guard refuses with its
class and message.

A public module-level name or method that only the tests reach is either
deleted or listed in ALLOWED with the reason it stays.  Uses are read from
the syntax trees of every module but ``__init__``, whose submodule table
lists module names as strings (``"transition"`` is also a function's
name): loading, not use.  A use is a name, an attribute or a string
constant (``verify.SUITES`` names suite functions) outside the definition
itself.

A method name that several classes define (``as_mapping``) counts for
an owner class only where the receiver is known to be that class:
``self`` or ``cls`` in its methods, a parameter annotated with it, a
local bound to its constructor or to a call annotated to return it, or a
``self`` attribute bound earlier in one of those ways.  An annotation that
is a union (``DELTA``'s class, a curve or a table) names each of its
classes.  Any other receiver counts for no owner.
"""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from kida import arith, errors, eta, localfactor as lf, splitting as sp
from test_cli import HOSTILE_INPUTS, USAGE_ERRORS, with_files

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kida"

# qualified name -> why it stays although no module of the package uses it
ALLOWED = {
    "transition.compose": "perfbench's transition-batch composes reports",
    "transition.TransitionReport.to_invariant_record":
        "perfbench's worker chains reports through it",
    "eta.DELTA": "Delta at the default budget, for library callers; the "
                 "CLI builds Delta at the KIDA_PRECISION budget",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _public_definitions(trees):
    """Qualified name -> (module, owner class or None, name)."""
    out = {}
    for mod, tree in trees.items():
        for node in tree.body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            for name in names:
                if not name.startswith("_"):
                    out[f"{mod}.{name}"] = (mod, None, name)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")):
                        out[f"{mod}.{node.name}.{sub.name}"] = (
                            mod, node.name, sub.name)
    return out


def _annotated_classes(node, classes):
    """The src/kida classes an annotation names: one, or each member of a
    union ``X | Y``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (_annotated_classes(node.left, classes)
                | _annotated_classes(node.right, classes))
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    return frozenset({name} & classes)


class _Uses(ast.NodeVisitor):
    """Walks one module and adds the (owner, name) pairs it uses to
    ``uses``: owner None for any use of the name, each of the receiver's
    classes where they are known."""

    def __init__(self, classes, returns, attr_types, uses):
        self.classes, self.returns = classes, returns
        self.attr_types, self.uses = attr_types, uses
        self.owner, self.defining, self.env = None, [], {}

    def type_of(self, node):
        """The classes the value of ``node`` may have; empty if unknown."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            return frozenset().union(*(
                self.attr_types.get((recv, node.attr), ())
                for recv in self.type_of(node.value)))
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            return (frozenset({name}) if name in self.classes
                    else self.returns.get(name, frozenset()))
        return frozenset()

    def use(self, owner, name):
        # a definition does not use itself
        if not any(name == n and owner in (None, o)
                   for o, n in self.defining):
            self.uses.add((owner, name))

    def visit_ClassDef(self, node):
        outer = self.owner
        self.defining.append((self.owner, node.name))
        self.owner = node.name
        self.generic_visit(node)
        self.owner = outer
        self.defining.pop()

    def visit_FunctionDef(self, node):
        outer_env, outer_owner = self.env, self.owner
        self.defining.append((self.owner, node.name))
        self.env = dict(self.env)
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        for i, arg in enumerate(args):
            if i == 0 and self.owner and arg.arg in ("self", "cls"):
                self.env[arg.arg] = frozenset({self.owner})
            elif arg.annotation is not None:
                self.env[arg.arg] = _annotated_classes(arg.annotation,
                                                       self.classes)
        self.owner = None       # a nested def belongs to no class
        self.generic_visit(node)
        self.env, self.owner = outer_env, outer_owner
        self.defining.pop()

    def visit_Assign(self, node):
        kind = self.type_of(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = kind
            elif isinstance(target, ast.Attribute) and kind:
                for recv in self.type_of(target.value):
                    self.attr_types[recv, target.attr] = kind
        self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.use(None, node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.use(None, node.attr)
            for recv in self.type_of(node.value):
                self.use(recv, node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.use(None, node.value)


def _unused():
    trees = _trees()
    defs = _public_definitions(trees)
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    returns = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.returns is not None:
                kind = _annotated_classes(node.returns, classes)
                if kind:
                    returns[node.name] = kind
    uses, attr_types = set(), {}
    for mod, tree in trees.items():
        if mod != "__init__":
            _Uses(classes, returns, attr_types, uses).visit(tree)
    shared = {name for name, n in Counter(
        name for _, owner, name in defs.values() if owner).items() if n > 1}
    return {qualified for qualified, (_, owner, name) in defs.items()
            if ((owner, name) if name in shared and owner else (None, name))
            not in uses}


def test_every_public_name_is_used_by_the_package():
    assert sorted(_unused() - set(ALLOWED)) == []


def test_allowed_names_exist_and_are_unused():
    # an entry for a name that is gone, or that the package now uses,
    # leaves the list
    assert sorted(set(ALLOWED) - _unused()) == []


# qualified name -> why it stays although no documented path runs it
UNRUN = {
    "transition.compose": "perfbench transition-batch's compose step",
    "qexp.CoefficientTable.__hash__": "a table hashes as a value although "
                                      "its ap is a dict",
    "splitting.AbelianField.__repr__": "a field's repr, for debugging",
    "localfactor._checked_make": "the _make and _replace of a checked "
                                 "record, which kida never calls: a "
                                 "library caller's copy is checked too",
    "verify.SuiteResult.fail": "records a counterexample, which a passing "
                               "suite has none of",
}

# key of a raise (see _definitions) -> why no documented path reaches it
_BUG = "an internal check that only a bug in kida can make fire"
_ONE_GROUP = ("a library caller's objects over two groups; the suites "
              "build each check over one")
_COMPOSE = "perfbench transition-batch's compose step"
UNREACHED = {
    "__init__.__getattr__: AttributeError 1":
        "a package attribute that names no submodule, which kida never reads",
    "arith.UnitGroup.log: NotAUnit 1":
        "kida logs units only: AbelianField refuses a generator that is "
        "not one first, and a Frobenius residue is prime to the modulus",
    "arith.crt: NotAUnit 1":
        "kida joins the coprime prime powers of one modulus",
    "arith.factor: ZeroInput 1":
        "the library's check of N >= 1 (the loop would not end at 0); the "
        "grammar and the flags refuse a conductor or a number below 1 first",
    "arith.padic_val: ZeroInput 1":
        "kida takes valuations of conductors and degrees, all at least 1",
    "arith.padic_val: ZeroInput 2": "kida passes a prime p, checked at entry",
    "chargroup.RepMultiset.__init__: SubgroupMismatch 1":
        "random_rep draws multiplicities >= 0",
    "chargroup.Subgroup.__init__: SubgroupMismatch 1":
        "the suites give generators of the group's rank",
    "chargroup._check_character: SubgroupMismatch 1":
        "the suites' characters come from dual_group and "
        "trivial_character: exponent vectors of the group's rank, each "
        "entry below its factor",
    "chargroup._check_group: SubgroupMismatch 1":
        "abelian_groups_upto and cyclic give chains of invariant factors, "
        "each at least 2 and dividing the next",
    "chargroup._over_binomial: InternalAdditivityViolation 1": _BUG,
    "chargroup.check_group_identity: SubgroupMismatch 1": _ONE_GROUP,
    "chargroup.check_group_identity: SubgroupMismatch 2":
        "the class count, " + _BUG + "; tests/mutants.py's row "
        "restriction-logs-unreduced shows it fires",
    "chargroup.multiplicity: SubgroupMismatch 1": _ONE_GROUP,
    "chargroup.multiplicity_trace: SubgroupMismatch 1": _ONE_GROUP,
    "chargroup.multiplicity_trace: SubgroupMismatch 2": _BUG,
    "chargroup.multiplicity_trace: SubgroupMismatch 3": _BUG,
    "eta.tau: SpecParseError 1":
        "the library's check of an index >= 1; kida tau refuses --n < 1 "
        "first, and Delta's a_ell is read at primes",
    "eta._tau: InternalAdditivityViolation 1":
        "Ramanujan's identity makes the division by 756 exact; " + _BUG
        + "; tests/mutants.py's row tau-sum-off-by-one shows it fires",
    "intlinalg.Lattice.__init__: KidaError 1":
        "every lattice kida builds holds diag(d) Z^r, so has full rank",
    "localfactor.CharacterLines.__new__: SpecParseError 1":
        "the grammar gives at most two character lines",
    "localfactor.UnramifiedPS.__new__: SpecParseError 1":
        "the library's check of p >= 2; the grammar refuses a ups: spec "
        "without --p first ('--p required for'), and hv and transition "
        "refuse a --p that is not an odd prime",
    "localfactor.Generic.__new__: IncoherentGenericData 1":
        "the grammar refuses a generic: spec with no values first, as the "
        "hostile row hv --form generic: --p 3 --e 3 shows",
    "localfactor.LocalCharData.__new__: SpecParseError 1":
        "the grammar gives no order on inertia, the suites orders >= 2",
    "localfactor.LocalCharData.restricted: IncoherentGenericData 1":
        "only compose and the suites restrict types, and no surviving "
        "character they restrict lacks an order",
    "localfactor.check_tower_additivity: IncoherentGenericData 1":
        "the suites give nested degrees",
    "localfactor.m_extension: SpecParseError 1":
        "the library's check of a local degree >= 1; hv refuses --e < 1 "
        "first, and a ramification index is at least 1",
    "localfactor.m_single: SpecParseError 1":
        "the library's check of a degree >= 1 for twist_sum and the "
        "chains; the suites give degrees >= 1",
    "localfactor.restrict_type: SpecParseError 1":
        "compose and the suites restrict by local degrees, each >= 1",
    "qexp.EllipticCurve.count_points: BadReduction 1":
        "callers pass only primes off the level, which holds every prime "
        "of the discriminant; kept for minimal models, whose level can "
        "miss a prime of a given model's discriminant",
    "qexp._count_bsgs: BoundExceeded 1":
        "Mestre: past 229 a point order decides the count",
    "qexp._hasse_multiples: BoundExceeded 1":
        "Hasse: the interval holds the order of the group, a multiple of "
        "the point's",
    "splitting.ramified_set: InternalAdditivityViolation 1":
        "the reduction at p, " + _BUG + "; tests/mutants.py's row "
        "extension-left-unreduced shows it fires",
    "splitting.ramified_set: InternalAdditivityViolation 2":
        "e in the base divides e in the extension, " + _BUG + "; "
        "tests/mutants.py's row ramification-fields-swapped shows it fires",
    "splitting.tower_places: KidaError 1":
        "README's refusal of a field ramified at p, to library callers; "
        "ramified_set passes reduced fields",
    "transition.InvariantRecord.__new__: SpecParseError 1":
        "--kind takes only the KINDS",
    "transition.InvariantRecord.__new__: SpecParseError 3":
        "kida transition passes no lambda when mu != 0",
    "transition.compose: ChainMismatch 1": _COMPOSE,
    "transition.compose: ChainMismatch 2": _COMPOSE,
    "transition.compose: ChainMismatch 3": _COMPOSE,
    "transition.compose: ChainMismatch 4": _COMPOSE,
    "transition.compose: InternalAdditivityViolation 1": _BUG,
    "transition.compose: InternalAdditivityViolation 2": _BUG,
    "transition.transition: MissingLocalType 2":
        "a ramified prime that divides the level; its row waits for the "
        "form to supply its multiplicative local types",
    "verify.run_suite: KidaError 1": "--suite takes only the SUITES",
}

# Runs the (argv, env, usage) rows and the code read from stdin in one
# interpreter under sys.settrace, which traces the frames of the files
# under the directory given with them and no others, and prints the file,
# first line and lines run of every such function called.  Lines are
# traced only in the functions given by (file, first line) as holding a
# raise, which keeps the run near the cost of a profile of calls.  The
# parser refuses a row, exit 2, if and only if it is a usage row.
TRACED = r"""
import contextlib, io, json, os, sys
rows, example, src, raising = json.load(sys.stdin)
raising = set(map(tuple, raising))
lines = {}      # code object -> the line numbers it ran

def trace(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(src):
        return None
    run = lines.setdefault(code, set())
    if (code.co_filename, code.co_firstlineno) not in raising:
        return None
    add = run.add

    def line(frame, event, arg):
        add(frame.f_lineno)
        return line
    return line

sys.settrace(trace)
from kida import cli
for argv, env, usage in rows:
    os.environ.update(env)
    refused = None
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    except SystemExit as exc:
        refused = exc.code
    if refused != (2 if usage else None):
        sys.exit(f"{argv}: parser exit {refused}")
    for key in env:
        del os.environ[key]
exec(example, {})
sys.settrace(None)
print(json.dumps([(code.co_filename, code.co_firstlineno, sorted(run))
                  for code, run in lines.items()]))
"""

# a kida command in a shell line, after any VAR=value prefixes; it ends
# at a pipe, a redirection or the end of a command substitution
COMMAND = re.compile(r"((?:[A-Z_]+=\S+ +)*)(?:kida|python -m kida\.cli) +"
                     r"((?:tau|hv|transition|verify) [^|>)\n]*)")
# a file a CI step writes for the commands after it: printf 'TEXT' > NAME
WRITTEN = re.compile(r"printf '([^'%]*)' > ([\w.-]+)")
# suite sizes on the profiled run: hasse at 300, so that points are
# counted past the Legendre range, and every other suite at most 30
HASSE_SIZE, SIZE_CAP = 300, 30


def _fenced(text, heading, lang):
    """The first ```lang block after ``heading`` in ``text``."""
    return text.split(heading, 1)[1].split(f"```{lang}\n", 1)[1].split(
        "```", 1)[0]


def _documented_commands():
    """(argv, env) of every kida command in README's CLI block and in the
    CI workflow, once each, with suite sizes set for the profiled run."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.sub(r"\s#.*", "", _fenced(readme, "## CLI", "sh"))
    ci = "\n".join(
        line for line in (ROOT / ".github" / "workflows" / "ci.yml")
        .read_text(encoding="utf-8").splitlines()
        if not line.lstrip().startswith(("#", "- name:")))
    rows = {}
    for text in (block, ci):
        for match in COMMAND.finditer(text.replace("\\\n", " ")):
            # a flag set from a shell variable keeps its default, and the
            # 2 of a 2> redirection is no argument
            args = re.sub(r'--[\w-]+ +"?\$\w+"?|\s+2$', "", match[2].strip())
            argv = shlex.split(args)
            if argv[0] == "verify" and "--size" in argv:
                i = argv.index("--size") + 1
                argv[i] = str(HASSE_SIZE if "hasse" in argv
                              else min(int(argv[i]), SIZE_CAP))
            rows[tuple(argv), tuple(match[1].split())] = None
    return [(list(argv), dict(item.split("=", 1) for item in env))
            for argv, env in rows]


def _written_files(tmp_path):
    """Write each file the CI workflow writes with printf into
    ``tmp_path``, where the profiled run reads it by its relative name."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    for text, name in WRITTEN.findall(ci):
        (tmp_path / name).write_text(text.replace("\\n", "\n"),
                                     encoding="ascii")


def _definitions():
    """Two maps over src/kida: (file, first line) -> qualified name of
    every function, the first line a decorator's where there is one, and
    (file, line) -> (key, first line of its function, 1 at module level)
    of every ``raise`` statement, whose line runs when it is reached.  A
    raise's key is the qualified name of its function, the exception it
    names and its ordinal among the raises of that exception there, as
    ``cli.cmd_tau: SpecParseError 2``."""
    functions, raises, count = {}, {}, Counter()

    def walk(node, prefix, path, first):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.Raise):
                exc = (sub.exc.func if isinstance(sub.exc, ast.Call)
                       else sub.exc)
                key = f"{prefix[:-1]}: {ast.unparse(exc) if exc else 'raise'}"
                count[key] += 1
                raises[str(path), sub.lineno] = (f"{key} {count[key]}", first)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                line = min([sub.lineno] + [d.lineno
                                           for d in sub.decorator_list])
                if not isinstance(sub, ast.ClassDef):
                    functions[str(path), line] = prefix + sub.name
                walk(sub, f"{prefix}{sub.name}.", path, line)
            else:
                walk(sub, prefix, path, first)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")),
             f"{path.stem}.", path, 1)
    return functions, raises


def test_every_function_runs_on_a_documented_path(tmp_path):
    # the README and CI commands, README's library example and every
    # hostile input with its files and environment, in one interpreter;
    # a usage row is refused by the parser, in CI as among the hostile;
    # the commands run where the files CI writes for them are
    rows = [(argv, env, tuple(argv) in USAGE_ERRORS)
            for argv, env in _documented_commands()] + [
        (with_files(argv, tmp_path)[0], env or {}, argv in USAGE_ERRORS)
        for argv, env, _ in HOSTILE_INPUTS]
    example = _fenced((ROOT / "README.md").read_text(encoding="utf-8"),
                      "## Library use", "python")
    env = {key: value for key, value in os.environ.items()
           if key != "KIDA_PRECISION"}
    env["PYTHONPATH"] = str(SRC.parent)
    _written_files(tmp_path)
    functions, raises = _definitions()
    raising = sorted({(path, first) for (path, _), (_, first)
                      in raises.items()})
    proc = subprocess.run([sys.executable, "-c", TRACED],
                          input=json.dumps([rows, example, str(SRC),
                                            raising]),
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    called, ran = set(), set()
    for path, first, lines in json.loads(proc.stdout):
        path = str(Path(path).resolve())
        called.add((path, first))
        ran.update((path, line) for line in lines)
    unrun = {name for key, name in functions.items() if key not in called}
    # a function no documented path runs is deleted or listed in UNRUN
    assert sorted(unrun - set(UNRUN)) == []
    # an entry for a function that is gone, or that now runs, leaves UNRUN
    assert sorted(set(UNRUN) - unrun) == []
    unreached = {key for where, (key, _) in raises.items()
                 if where not in ran}
    # so is a raise no documented path reaches, in UNREACHED
    assert sorted(unreached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) - unreached) == []


# keys of the raises (see _definitions) that name no kida.errors class:
# PEP 562 has a module's __getattr__ raise AttributeError, and
# cli._cast's ValueError, the class int() raises too, is the parser's
# control flow, which both its callers catch
NOT_KIDA_ERRORS = {"__init__.__getattr__: AttributeError 1",
                   "cli._cast: ValueError 1"}


def test_every_raise_names_a_kida_error():
    kida_errors = {name for name, value in vars(errors).items()
                   if isinstance(value, type)
                   and issubclass(value, errors.KidaError)}
    # raise type(exc)(...) inside ``except C as exc`` raises a C again
    again = set()
    for path in sorted(SRC.glob("*.py")):
        for handler in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(handler, ast.ExceptHandler) and handler.name
                    and ast.unparse(handler.type) in kida_errors):
                again.update(
                    (str(path), node.lineno) for node in ast.walk(handler)
                    if isinstance(node, ast.Raise)
                    and ast.unparse(node.exc).startswith(
                        f"type({handler.name})("))
    _, raises = _definitions()
    keys = {key for where, (key, _) in raises.items() if where not in again}
    named = {key for key in keys
             if key.split(": ")[1].rsplit(" ", 1)[0] in kida_errors}
    assert sorted(keys - named - NOT_KIDA_ERRORS) == []
    # an exemption whose raise is gone, or now names a class, leaves
    assert sorted(NOT_KIDA_ERRORS - (keys - named)) == []


def test_only_tau_takes_a_precision_budget():
    # a form bounds its own coefficients, Delta by its precision field,
    # so no function on the coefficient path passes a budget on
    takers = [f"{mod}.{node.name}" for mod, tree in _trees().items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and "precision" in [arg.arg for arg in (
                  node.args.posonlyargs + node.args.args
                  + node.args.kwonlyargs)]]
    assert takers == ["eta.tau"]


SC, UNRAM = lf.CharacterLines(()), lf.LocalCharData(False, True)
DEGREE = (errors.SpecParseError, "local degree must be >= 1")
# each library guard: a call it refuses, the class and the message
GUARDS = {
    "factor-0": (lambda: arith.factor(0), errors.ZeroInput,
                 "factor() needs n >= 1"),
    "padic-val-base-1": (lambda: arith.padic_val(4, 1), errors.ZeroInput,
                         "p must be a prime >= 2"),
    "crt-not-coprime": (lambda: arith.crt([1, 2], [6, 9]), errors.NotAUnit,
                        "moduli not coprime"),
    "order-1-on-inertia": (lambda: lf.LocalCharData(True, True, True, 1),
                           errors.SpecParseError,
                           "ramified character needs order > 1 on inertia"),
    "three-lines": (lambda: lf.CharacterLines((UNRAM,) * 3),
                    errors.SpecParseError,
                    "V has at most two character lines"),
    "m-extension-0": (lambda: lf.m_extension(SC, 0), *DEGREE),
    "twist-sum-0": (lambda: lf.twist_sum(SC, 0), *DEGREE),
    "m-single-0": (lambda: lf.m_single(SC, 0, 0), *DEGREE),
    "chain-inner-0": (lambda: lf.check_tower_additivity(SC, 0, 3), *DEGREE),
    "chain-not-nested": (lambda: lf.check_tower_additivity(SC, 2, 3),
                         errors.IncoherentGenericData,
                         "chain degrees must be nested"),
    "restrict-generic-0": (lambda: lf.restrict_type(lf.Generic((1, 0, 0)), 0),
                           *DEGREE),
    **{f"restrict-surviving-line-{d}": (
        lambda d=d: lf.restrict_type(lf.CharacterLines(
            (lf.LocalCharData(True, True, False, 3),)), d), *DEGREE)
       for d in (0, -3)},
    # a generator is named as written, the first bad one first
    "generator-7-mod-7": (lambda: sp.AbelianField(7, (7,)),
                          errors.SpecParseError,
                          "subgroup generator 7 not a unit mod 7"),
    "generators-10-3-mod-15": (lambda: sp.AbelianField(15, (10, 3)),
                               errors.SpecParseError,
                               "subgroup generator 10 not a unit mod 15"),
    "efg-ell-4": (lambda: sp.efg(sp.rationals(), 4), errors.SpecParseError,
                  "ell 4 is not prime"),
    "efg-ell-past-bound": (lambda: sp.efg(sp.rationals(), 10 ** 12 + 39),
                           errors.BoundExceeded,
                           "ell 1000000000039 beyond bound 1000000000000"),
    "ramified-set-p-9": (lambda: sp.ramified_set(sp.rationals(),
                                                 sp.rationals(), 9),
                         errors.SpecParseError, "p 9 is not an odd prime"),
    "tower-places-ramified": (
        lambda: sp.tower_places(sp.AbelianField(11), 23, 11),
        errors.KidaError, "cyclotomic:11:gens= is ramified at 11: count the "
        "tower of its unramified_at_p_reduction"),
    # p = 0 once divided by zero, and p = 1 was named a ramified prime
    **{f"tower-places-p-{p}": (
        lambda p=p: sp.tower_places(sp.rationals(), 23, p),
        errors.SpecParseError, f"p {p} is not an odd prime")
       for p in (0, 1, 9)},
    # once PrecisionExceeded, "tau(0) beyond precision budget 2000"
    **{f"tau-{n}": (lambda n=n: eta.tau(n), errors.SpecParseError,
                    f"tau index {n} must be >= 1") for n in (0, -1)},
    # p = 0 once raised ZeroDivisionError, and p = -5 was kept
    **{f"ups-p-{p}": (lambda p=p: lf.UnramifiedPS(2, 1, p),
                      errors.SpecParseError, f"ups needs p >= 2, got {p}")
       for p in (1, 0, -5)},
}


@pytest.mark.parametrize("call, cls, message", GUARDS.values(),
                         ids=list(GUARDS))
def test_each_guard_refuses_with_its_class(call, cls, message):
    with pytest.raises(errors.KidaError) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message
