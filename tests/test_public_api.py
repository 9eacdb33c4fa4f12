"""Every public name in src/kida is used by the package itself, and every
function in it runs on a documented path.

A public module-level name or method that only the tests reach is either
deleted or listed in ALLOWED with the reason it stays.  Uses are read from
the syntax trees of every module but ``__init__``, whose export table
lists names as strings: exposure, not use.  A use is a name, an attribute
or a string constant (``verify.SUITES`` names suite functions) outside the
definition itself.

A method name that several classes define (``as_mapping``) counts for
an owner class only where the receiver is known to be that class:
``self`` or ``cls`` in its methods, a parameter annotated with it, a
local bound to its constructor or to a call annotated to return it, or a
``self`` attribute bound earlier in one of those ways.  Any other
receiver counts for no owner.
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

from test_cli import HOSTILE_INPUTS, USAGE_ERRORS, with_files

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kida"

# qualified name -> why it stays although no module of the package uses it
ALLOWED = {
    "transition.compose": "perfbench's transition-batch composes reports",
    "transition.TransitionReport.to_invariant_record":
        "perfbench's worker chains reports through it",
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


def _annotated_class(node, classes):
    """The src/kida class an annotation names, if it names one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    return name if name in classes else None


class _Uses(ast.NodeVisitor):
    """Walks one module and adds the (owner, name) pairs it uses to
    ``uses``: owner None for any use of the name, the receiver's class
    where it is known."""

    def __init__(self, classes, returns, attr_types, uses):
        self.classes, self.returns = classes, returns
        self.attr_types, self.uses = attr_types, uses
        self.owner, self.defining, self.env = None, [], {}

    def type_of(self, node):
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            return self.attr_types.get((self.type_of(node.value), node.attr))
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            return name if name in self.classes else self.returns.get(name)
        return None

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
                self.env[arg.arg] = self.owner
            elif arg.annotation is not None:
                self.env[arg.arg] = _annotated_class(arg.annotation,
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
                recv = self.type_of(target.value)
                if recv:
                    self.attr_types[recv, target.attr] = kind
        self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.use(None, node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.use(None, node.attr)
            recv = self.type_of(node.value)
            if recv:
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
                kind = _annotated_class(node.returns, classes)
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
    "__init__.__dir__": "dir(kida) lists the names that load on first use",
    "errors.Record.__reduce__": "copy and pickle rebuild a record",
    "errors.Record.__repr__": "a record's repr, which verify failure "
                              "messages embed; a passing run prints none",
    "errors.Record.__setattr__": "refuses assignment, which no caller makes",
    "qexp.CoefficientTable.__hash__": "a table hashes as a value although "
                                      "its ap is a dict",
    "qexp._DeltaSource.__repr__": "the repr of delta_form()'s source",
    "splitting.AbelianField.__repr__": "a field's repr, for debugging",
    "verify.SuiteResult.fail": "records a counterexample, which a passing "
                               "suite has none of",
}

# Runs the (argv, env, usage) rows and the code read from stdin in one
# interpreter under sys.setprofile, and prints the (file, first line) of
# every function called.  The parser refuses a row, exit 2, if and only
# if it is a usage row.
PROFILED = r"""
import contextlib, io, json, os, sys
rows, example = json.load(sys.stdin)
called = set()
sys.setprofile(lambda frame, event, arg: event == "call"
               and called.add(frame.f_code))
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
sys.setprofile(None)
print(json.dumps(sorted({(code.co_filename, code.co_firstlineno)
                         for code in called})))
"""

# a kida command in a shell line, after any VAR=value prefixes; it ends
# at a pipe, a redirection or the end of a command substitution
COMMAND = re.compile(r"((?:[A-Z_]+=\S+ +)*)(?:kida|python -m kida\.cli) +"
                     r"((?:tau|hv|transition|verify) [^|>)\n]*)")
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


def _function_lines():
    """(file, first line) -> qualified name of every function in
    src/kida; the first line is a decorator's where there is one."""
    out = {}

    def walk(node, prefix, path):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([sub.lineno] + [d.lineno
                                            for d in sub.decorator_list])
                out[str(path), first] = prefix + sub.name
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                walk(sub, f"{prefix}{sub.name}.", path)
            else:
                walk(sub, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")),
             f"{path.stem}.", path)
    return out


def test_every_function_runs_on_a_documented_path(tmp_path):
    # the README and CI commands, README's library example and every
    # hostile input with its files and environment, in one interpreter;
    # a usage row is refused by the parser, in CI as among the hostile
    rows = [(argv, env, tuple(argv) in USAGE_ERRORS)
            for argv, env in _documented_commands()] + [
        (with_files(argv, tmp_path)[0], env or {}, argv in USAGE_ERRORS)
        for argv, env, _ in HOSTILE_INPUTS]
    example = _fenced((ROOT / "README.md").read_text(encoding="utf-8"),
                      "## Library use", "python")
    env = {key: value for key, value in os.environ.items()
           if key != "KIDA_PRECISION"}
    env["PYTHONPATH"] = str(SRC.parent)
    proc = subprocess.run([sys.executable, "-c", PROFILED],
                          input=json.dumps([rows, example]), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    called = {(str(Path(path).resolve()), line)
              for path, line in json.loads(proc.stdout)}
    unrun = {name for key, name in _function_lines().items()
             if key not in called}
    # a function no documented path runs is deleted or listed in UNRUN
    assert sorted(unrun - set(UNRUN)) == []
    # an entry for a function that is gone, or that now runs, leaves UNRUN
    assert sorted(set(UNRUN) - unrun) == []
