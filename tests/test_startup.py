"""Start-up and exit: each command loads only the kida modules it runs,
and no more code than its ceiling, the package loads its submodules on
first use, and a program run ends with main's output and code and no
interpreter teardown."""

import ast
import gc
import json
import os
import subprocess
import sys

import pytest

from kida import cli, transition, verify

# the src directory of the kida under test, which the subprocesses run
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

# Runs one command in a fresh interpreter and prints the modules it
# loaded on top of those the interpreter had at start.  No command may
# load NEVER (dataclasses and inspect cost about 30 ms of start-up, and
# argparse with the gettext and locale it pulls in about 5 ms; the
# command line is read from cli.COMMANDS).
LOADED = r"""
import sys
before = set(sys.modules)
from kida import cli
code = cli.main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)))
print(code)
"""

BASE = {"kida", "kida.cli", "kida.errors"}
NEVER = {"dataclasses", "inspect", "argparse", "gettext", "locale"}


def _python(code, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("KIDA_PRECISION", None)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def loaded(*argv):
    proc = _python(LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    *_, names, code = proc.stdout.splitlines()
    return set(names.split()), int(code)


def kida_modules(names):
    return {name for name in names if name.split(".")[0] == "kida"}


def compiled_nodes(names):
    """AST nodes of the kida modules in ``names``: the code a command
    compiles.  Node counts are deterministic where compile timings are
    not."""
    total = 0
    for name in kida_modules(names):
        path = os.path.join(SRC, *name.split("."))
        if name == "kida":
            path = os.path.join(path, "__init__")
        with open(path + ".py", encoding="utf-8") as f:
            total += sum(1 for _ in ast.walk(ast.parse(f.read())))
    return total


# The most AST nodes each command below may compile.  A change may lower
# a ceiling; raising one is a stated decision.
NODE_CEILINGS = {
    "tau --n 23": 3787,
    "tau --n 23 --mod 11 --json": 3787,
    "hv --form sc --p 5 --e 5": 7068,
    "hv --form ups:a=2,c=1 --p 5 --e 5": 7068,
    "verify --suite path-agreement": 7799,
    "verify --suite hasse --size 30": 8785,
    "hv --form sc --e 5": 5122,
    "hv --form delta --p 11 --ell 23 --ext cyclotomic:23:degree=11": 11075,
    "transition --form delta --p 11 --base Q --ext cyclotomic:23:degree=11 "
    "--lambda 1 --mu 0": 12868,
    "verify --suite group-identity --size 12": 11723,
    "verify --suite tower-additivity --size 9": 13869,
    "transition --p 5 --base Q --ext cyclotomic:11:degree=5 --lambda 2 "
    "--mu 0 --local 11=special:ram,triv,dies --json": 12057,
}


@pytest.mark.parametrize("argv, expected", [
    # eta loads no arith, and no curve code
    (["tau", "--n", "23"], {"kida.eta"}),
    (["tau", "--n", "23", "--mod", "11", "--json"], {"kida.eta"}),
    # --p is checked for primality, which loads arith
    (["hv", "--form", "sc", "--p", "5", "--e", "5"],
     {"kida.localfactor", "kida.arith"}),
    (["hv", "--form", "ups:a=2,c=1", "--p", "5", "--e", "5"],
     {"kida.localfactor", "kida.arith"}),
    (["verify", "--suite", "path-agreement"],
     {"kida.verify", "kida.localfactor"}),
    # qexp names every form, so it loads eta too; a count at a prime
    # below 229 loads no arith
    (["verify", "--suite", "hasse", "--size", "30"],
     {"kida.verify", "kida.qexp", "kida.eta"}),
    (["hv", "--form", "sc", "--e", "5"], {"kida.localfactor"}),
])
def test_light_commands_load_exactly(argv, expected):
    names, code = loaded(*argv)
    assert code == 0
    assert kida_modules(names) == BASE | expected
    assert not names & NEVER
    assert compiled_nodes(names) <= NODE_CEILINGS[" ".join(argv)]


@pytest.mark.parametrize("argv, absent", [
    (["hv", "--form", "delta", "--p", "11", "--ell", "23", "--ext",
      "cyclotomic:23:degree=11"],
     {"kida.chargroup", "kida.qexp", "kida.transition", "kida.verify"}),
    (["transition", "--form", "delta", "--p", "11", "--base", "Q", "--ext",
      "cyclotomic:23:degree=11", "--lambda", "1", "--mu", "0"],
     {"kida.chargroup", "kida.qexp", "kida.verify"}),
    (["verify", "--suite", "group-identity", "--size", "12"],
     {"kida.eta", "kida.localfactor", "kida.qexp", "kida.splitting",
      "kida.transition"}),
    (["verify", "--suite", "tower-additivity", "--size", "9"],
     {"kida.eta", "kida.qexp", "kida.splitting", "kida.transition"}),
    (["transition", "--p", "5", "--base", "Q", "--ext",
      "cyclotomic:11:degree=5", "--lambda", "2", "--mu", "0",
      "--local", "11=special:ram,triv,dies", "--json"],
     {"kida.chargroup", "kida.eta", "kida.qexp", "kida.verify"}),
])
def test_commands_skip_what_they_do_not_run(argv, absent):
    names, code = loaded(*argv)
    assert code == 0
    assert BASE <= kida_modules(names)
    assert not names & (absent | NEVER)
    assert compiled_nodes(names) <= NODE_CEILINGS[" ".join(argv)]


PACKAGE = r"""
import sys
import kida
assert "kida.eta" not in sys.modules
assert kida.eta.tau(23) == 18643272           # submodule before import
assert "kida.qexp" not in sys.modules and "kida.transition" not in sys.modules
try:
    kida.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise SystemExit("missing attribute did not raise")
print("ok")
"""


def test_package_names_resolve_on_first_use():
    proc = _python(PACKAGE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_choices_match_the_library():
    assert cli.KIND_CHOICES == transition.KINDS
    assert cli.SUITE_CHOICES == tuple(sorted(verify.SUITES))
    choices = {(name, flag): cast
               for name, (_, _, options) in cli.COMMANDS.items()
               for flag, _, cast, _ in options if isinstance(cast, tuple)}
    assert choices == {("transition", "--kind"): transition.KINDS,
                       ("verify", "--suite"): tuple(sorted(verify.SUITES))}


@pytest.mark.parametrize("argv", [["transition", "--kind", "bogus"],
                                  ["verify", "--suite", "bogus"]])
def test_bad_choices_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# One command per exit path: success, a domain error, a malformed input,
# missing local data, a usage error and --help.
EXIT_PATHS = [
    (["tau", "--n", "23"], 0),
    (["tau", "--n", "2001"], 2),
    (["tau", "--n", "0"], 3),
    (["transition", "--p", "11", "--base", "Q", "--ext",
      "cyclotomic:23:degree=11", "--lambda", "1", "--mu", "0"], 4),
    (["tau", "--bogus"], 2),
    (["--help"], 0),
]

# Registers an atexit probe, then runs kida.cli as the program, which
# must end with os._exit before the probe runs.
AS_PROGRAM = r"""
import atexit, runpy
atexit.register(lambda: print("atexit ran"))
runpy.run_module("kida.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, code", EXIT_PATHS,
                         ids=[" ".join(argv) for argv, _ in EXIT_PATHS])
def test_a_program_run_ends_as_main_returns(argv, code, capsys):
    proc = _python(AS_PROGRAM, *argv)
    try:
        returned = cli.main(argv)
    except SystemExit as exc:
        returned = exc.code
    out, err = capsys.readouterr()
    assert returned == code
    assert proc.returncode == code, proc.stderr
    assert (proc.stdout, proc.stderr) == (out, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered, code", [("1", 1), (None, 120)],
                         ids=["unbuffered", "buffered"])
def test_a_full_stdout_fails_the_program_run(unbuffered, code):
    # unbuffered, print raises and the traceback exits 1; buffered, the
    # exit path's flush fails and the interpreter's own exit reports it,
    # with the status 120 of a failed flush at exit
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "kida.cli", "tau", "--n", "23"], env=env,
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == code
    assert "No space left on device" in proc.stderr


# Calls main with each exit path's argv in one process: the collector
# must be as it was after every call and at exit.
IN_PROCESS = r"""
import atexit, gc, json, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
from kida import cli
before = gc.get_freeze_count(), gc.isenabled()
for argv in json.loads(sys.argv[1]):
    try:
        cli.main(argv)
    except SystemExit:
        pass
    assert (gc.get_freeze_count(), gc.isenabled()) == before, argv
"""


def test_main_with_argv_leaves_the_collector_alone():
    proc = _python(IN_PROCESS, json.dumps([argv for argv, _ in EXIT_PATHS]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "frozen False"
    before = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(["hv", "--form", "sc", "--e", "5"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before
