"""Start-up: each command loads only the kida modules it runs, and the
package resolves its public names on first use."""

import os
import subprocess
import sys

import pytest

from kida import cli, transition, verify

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

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


def loaded(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, names, code = proc.stdout.splitlines()
    return set(names.split()), int(code)


def kida_modules(names):
    return {name for name in names if name.split(".")[0] == "kida"}


@pytest.mark.parametrize("argv, expected", [
    # qexp loads arith only in its curve, table and Frobenius functions
    (["tau", "--n", "23"], {"kida.qexp"}),
    (["tau", "--n", "23", "--mod", "11", "--json"], {"kida.qexp"}),
    # --p is checked for primality, which loads arith
    (["hv", "--form", "sc", "--p", "5", "--e", "5"],
     {"kida.localfactor", "kida.arith"}),
    (["hv", "--form", "ups:a=2,c=1", "--p", "5", "--e", "5"],
     {"kida.localfactor", "kida.arith"}),
    (["verify", "--suite", "path-agreement"],
     {"kida.verify", "kida.localfactor"}),
    (["verify", "--suite", "hasse", "--size", "30"],
     {"kida.verify", "kida.qexp", "kida.arith"}),
    (["hv", "--form", "sc", "--e", "5"], {"kida.localfactor"}),
])
def test_light_commands_load_exactly(argv, expected):
    names, code = loaded(*argv)
    assert code == 0
    assert kida_modules(names) == BASE | expected
    assert not names & NEVER


@pytest.mark.parametrize("argv, absent", [
    (["hv", "--form", "delta", "--p", "11", "--ell", "23", "--ext",
      "cyclotomic:23:degree=11"],
     {"kida.chargroup", "kida.transition", "kida.verify"}),
    (["transition", "--form", "delta", "--p", "11", "--base", "Q", "--ext",
      "cyclotomic:23:degree=11", "--lambda", "1", "--mu", "0"],
     {"kida.chargroup", "kida.verify"}),
    (["verify", "--suite", "group-identity", "--size", "12"],
     {"kida.localfactor", "kida.qexp", "kida.splitting", "kida.transition"}),
    (["verify", "--suite", "tower-additivity", "--size", "9"],
     {"kida.qexp", "kida.splitting", "kida.transition"}),
    (["transition", "--p", "5", "--base", "Q", "--ext",
      "cyclotomic:11:degree=5", "--lambda", "2", "--mu", "0",
      "--local", "11=special:ram,triv,dies", "--json"],
     {"kida.chargroup", "kida.verify"}),
])
def test_commands_skip_what_they_do_not_run(argv, absent):
    names, code = loaded(*argv)
    assert code == 0
    assert BASE <= kida_modules(names)
    assert not names & (absent | NEVER)


PACKAGE = r"""
import sys
import kida
assert "kida.qexp" not in sys.modules
assert kida.qexp.tau(23) == 18643272          # submodule before import
assert kida.tau is kida.qexp.tau
assert "kida.transition" not in sys.modules
assert {"qexp", "verify", "tau", "run_transition"} <= set(dir(kida))
namespace = {}
exec("from kida import *", namespace)
assert set(kida.__all__) <= set(namespace)
for name in kida.__all__:
    assert getattr(kida, name) is namespace[name], name
assert kida.run_transition is kida.transition.transition
try:
    kida.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise SystemExit("missing attribute did not raise")
print("ok")
"""


def test_package_names_resolve_on_first_use():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PACKAGE], env=env,
                          capture_output=True, text=True, timeout=120)
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
