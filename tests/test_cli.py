import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from kida import cli, localfactor as lf, verify
from kida.errors import SpecParseError


def run_cli(*argv, env_extra=None, timeout=120):
    env = dict(os.environ)
    env.pop("KIDA_PRECISION", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "kida.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


TRANSITION_23 = ("transition", "--form", "delta", "--base", "Q", "--ext",
                 "cyclotomic:23:degree=11", "--lambda", "1", "--mu", "0")


def transition_ext(spec):
    """TRANSITION_23 at --p 11 over the extension ``spec``."""
    return TRANSITION_23[:6] + (spec,) + TRANSITION_23[7:] + ("--p", "11")


EC_11 = "ec:a1=0,a2=-1,a3=1,a4=-10,a6=-20"
# Hostile inputs, one row each: argv, extra environment, documented exit
# code.  Each once hung, ran without bound, passed vacuously or ended in a
# traceback, or is the one documented path to its error.  A name in
# BAD_FILES stands for a file with that text (CONFIG for a config file
# whose values are malformed, with keys of three commands, so that each
# refuses its first key that names none of its options; CONFIG_MOD for
# one whose --mod is below 1; CONFIG_TWICE and CONFIG_UNKNOWN for the
# repeated and the unknown key that once went unnoticed, the last value
# winning and the key ignored; CONFIG_N and CONFIG_KIND for the malformed
# values that once went unchecked where a flag overrode them;
# CONFIG_NO_EQUALS, TABLE_THREE and TABLE_COMMENTS for a line without
# '=', a table record of three fields and a table of comments only;
# TABLE_HEADER, TABLE_NOT_PRIME and TABLE_TWICE for a header short of a
# field, a composite index and an index given twice), DIR for a
# directory.
BAD_FILES = {
    "CONFIG": "n = abc\np = seven\nsize = big\n",
    "CONFIG_MOD": "n = 23\nmod = -5\n",
    "CONFIG_TWICE": "n = 23\nn = 5\n",
    "CONFIG_UNKNOWN": "n = 23\nbogus = 5\n",
    "CONFIG_N": "n = abc\n",
    "CONFIG_KIND": "kind = bogus\n",
    "NON_ASCII": "n = 23  # \u00e9\n",
    "TABLE_WORD": "weight two level 11\n",
    "TABLE_FIELD": "weight 2 level 11\n2 x\n",
    "TABLE_WEIGHT_1": "weight 1 level 11\n",
    # 2^89 - 1: trial division would take hours
    "TABLE_HUGE_PRIME": "weight 2 level 11\n618970019642690137449562111 1\n",
    "TABLE_NO_7": "weight 2 level 11\n2 -2\n3 -1\n",
    "CONFIG_NO_EQUALS": "n = 23\nbogus\n",
    "TABLE_THREE": "weight 2 level 11\n7 1 9\n",
    "TABLE_COMMENTS": "# comments\n# only\n",
    "TABLE_HEADER": "weight 2 level\n",
    "TABLE_NOT_PRIME": "weight 2 level 11\n4 1\n",
    "TABLE_TWICE": "weight 2 level 11\n2 -2\n2 -2\n",
}
HV_TABLE = ("hv", "--p", "5", "--ell", "7", "--e", "5", "--form")
HV_BIG_CURVE = ("hv", "--form", "ec:a4=1000000007,a6=1000000009", "--p",
                "5", "--ell", "7", "--e", "5")
# the curve's level is computed when the spec is parsed, so its refusal
# comes before a missing flag's and also where --local types every place
BIG_CURVE_AT_PARSE = [
    HV_BIG_CURVE[:5] + HV_BIG_CURVE[7:],
    ("transition", "--form", HV_BIG_CURVE[2], "--p", "5", "--base", "Q",
     "--ext", "cyclotomic:11:degree=5", "--lambda", "2", "--mu", "0",
     "--local", "11=sc")]
# a dying character at a prime with 3^13 places drives lambda.out below 0
NEGATIVE_LAMBDA = ("transition", "--p", "3", "--base", "Q", "--ext",
                   "cyclotomic:19131877:degree=4782969", "--local",
                   "19131877=special:ram,triv,dies", "--lambda", "0",
                   "--mu", "0")
# the characters of Q(zeta_11) have tame 11-parts; the reduction at 11
# once answered with the place count of another tower
TAME_AT_P = ("transition", "--form", "delta", "--p", "11", "--base",
             "cyclotomic:11:degree=10", "--ext", "cyclotomic:12353:gens=925",
             "--lambda", "1", "--mu", "0")
# --local overrides that were once ignored in silence: an ELL that is not
# prime, one given twice (the last won), and one past the --ell bound
TRANSITION_23_LOCAL = TRANSITION_23 + ("--p", "11", "--local")
LOCAL_NOT_PRIME = [TRANSITION_23_LOCAL + ("4=sc",),
                   TRANSITION_23_LOCAL + ("0=sc",),
                   TRANSITION_23 + ("--p", "11", "--local=-7=sc")]
LOCAL_TWICE = TRANSITION_23_LOCAL + ("23=sc", "--local", "23=ups:a=10,c=1")
LOCAL_PAST_BOUND = TRANSITION_23_LOCAL + ("1000000000039=sc",)
# a key given twice in a key=int list once let the last value win
UPS_KEY_TWICE = ("hv", "--form", "ups:a=1,a=2,c=1", "--p", "5", "--e", "5")
EC_KEY_TWICE = ("hv", "--form", "ec:a3=1,a2=-1,a4=-10,a6=-20,a6=5", "--p",
                "5", "--ell", "7", "--e", "5")
# (Z/91)^* = C_6 x C_6 has four index-3 subgroups
DEGREE_NOT_UNIQUE = ("transition", "--form", "delta", "--p", "3", "--base",
                     "Q", "--ext", "cyclotomic:91:degree=3", "--lambda", "1",
                     "--mu", "0")
TAU_BELOW_1 = [("tau", "--n", "0"), ("tau", "--n", "-5")]
# hv's --p is an odd prime, as transition's is: --p 2 once printed h = 2
# for ups:a=2,c=1, and 0, 1 and 4 were refused as not prime
HV_P_NOT_ODD_PRIME = [
    ("hv", "--form", "ups:a=2,c=1", "--p", "2", "--e", "2"),
    ("hv", "--form", "generic:1,2,3", "--p", "1", "--e", "3"),
    ("hv", "--form", "generic:1,2,3", "--p", "0", "--e", "3"),
    ("hv", "--form", "ups:a=1,c=1", "--p", "0", "--e", "3"),
    ("hv", "--form", "delta", "--p", "4", "--ell", "23", "--e", "11"),
    ("hv", "--form", "ups:a=1,c=1", "--p", "4", "--e", "4"),
    ("hv", "--form", "sc", "--p", "4", "--e", "4"),
]
HV_ELL_IS_P = ("hv", "--form", "delta", "--p", "11", "--ell", "11", "--e",
               "11")
# documented errors past the parser, each with its message: a ramified
# prime with neither a form nor a local type (exit 4); mu != 0, Frobenius
# data at a prime dividing the level, a negative generic m-value and
# generic data over a degree that the place's does not divide (exit 2)
NO_LOCAL_TYPE = ("transition", "--p", "5", "--base", "Q", "--ext",
                 "cyclotomic:11:degree=5", "--lambda", "1", "--mu", "0")
DOMAIN_ERRORS = {
    TRANSITION_23[:-1] + ("1", "--p", "11"):
        "transition formula needs mu = 0 (and a lambda) on input; got mu=1",
    ("hv", "--form", "ec:a2=-1,a3=1,a4=-10,a6=-20", "--p", "5", "--ell",
     "11", "--e", "5"): "11 divides the level 11; supply a local type "
                        "instead",
    ("hv", "--form", "generic:-1,0,0,0,0", "--p", "5", "--e", "5"):
        "generic m-values must be >= 0",
    ("hv", "--form", "generic:1,0,0,0,0", "--p", "5", "--e", "25"):
        "generic data over degree 5 cannot serve degree 25",
}
# a config value is checked also where a flag overrides it (these printed
# tau(5) and ran the plus transition, exit 0)
CONFIG_OVERRIDDEN = [("tau", "--n", "5", "--config", "CONFIG_N"),
                     TRANSITION_23 + ("--p", "11", "--kind", "plus",
                                      "--config", "CONFIG_KIND")]
# a budget below 1 once exited 2, "beyond precision budget -5"; the
# budget is read before any command runs, so a malformed one exits 3 also
# in the commands that spend none (they once ran and exited 0)
PRECISION_BELOW_1 = [(("tau", "--n", "23"), {"KIDA_PRECISION": value}, 3)
                     for value in ("-5", "0")] + [
    (("hv", "--form", "sc", "--e", "5"), {"KIDA_PRECISION": "-5"}, 3),
    (("verify", "--suite", "hasse", "--size", "30"),
     {"KIDA_PRECISION": "abc"}, 3),
    (("transition", "--p", "11", "--base", "Q", "--ext",
      "cyclotomic:23:degree=11", "--local", "23=sc", "--lambda", "1",
      "--mu", "0"), {"KIDA_PRECISION": "abc"}, 3),
]
# Delta's budget on the failure paths of hv and transition: tau(1123)
# past a budget of 1122, and a budget past MAX_PRECISION, refused at the
# first coefficient
HV_1123 = ("hv", "--form", "delta", "--p", "11", "--ell", "1123", "--ext",
           "cyclotomic:1123:degree=11")
TRANSITION_1123 = ("transition", "--form", "delta", "--p", "11", "--base",
                   "Q", "--ext", "cyclotomic:1123:degree=11", "--lambda",
                   "1", "--mu", "0")
DELTA_BUDGETS = {
    "1122": "tau(1123) beyond precision budget 1122",
    "10001": "precision budget 10001 beyond bound 10000",
}
DELTA_PAST_BUDGET = [(argv, {"KIDA_PRECISION": budget}, 2)
                     for argv in (HV_1123, TRANSITION_1123)
                     for budget in DELTA_BUDGETS]
# a --mod below 1 once printed tau mod a negative number
TAU_MOD_BELOW_1 = [("tau", "--n", "23", "--mod", "0"),
                   ("tau", "--n", "23", "--mod", "-5"),
                   ("tau", "--config", "CONFIG_MOD")]
# a flag a command needs and did not get, exit 3, each with its message
MISSING_FLAGS = {
    ("tau",): "tau needs --n",
    ("hv", "--p", "5", "--e", "5"): "hv needs --form",
    ("hv", "--form", "delta", "--p", "5", "--e", "5"):
        "hv with a form spec needs --p and --ell",
    ("hv", "--form", "sc"): "hv needs --e or --ext",
    ("hv", "--form", "sc", "--ext", "cyclotomic:11:degree=5"):
        "--ext needs --ell to locate the place",
    ("hv", "--form", "ups:a=1,c=1", "--e", "5"):
        "--p required for 'ups:a=1,c=1'",
    TRANSITION_23: "transition needs --p",
    TRANSITION_23[:-4] + ("--mu", "0", "--p", "11"):
        "transition needs --lambda and --mu",
    ("verify",): "verify needs --suite",
}
# malformed specs and files, and field pairs no transition takes (a
# degree= that no subgroup has, a relative degree that is not a power of
# p), exit 3, each with its message
MALFORMED = {
    ("tau", "--config", "CONFIG_NO_EQUALS"):
        "CONFIG_NO_EQUALS:2: expected 'key = value'",
    ("hv", "--form", "bogus", "--p", "5", "--e", "5"):
        "bad form spec 'bogus'",
    ("hv", "--form", "ec:a9=1", "--p", "5", "--ell", "7", "--e", "5"):
        "bad field 'a9=1' in 'ec:a9=1': expected a1|a2|a3|a4|a6=<int>",
    HV_TABLE + ("table:TABLE_THREE",):
        "TABLE_THREE: line 2: expected 'ell a_ell'",
    HV_TABLE + ("table:TABLE_COMMENTS",):
        "TABLE_COMMENTS: missing 'weight k level N' header",
    ("hv", "--form", "special:ram", "--p", "5", "--e", "5"):
        "bad character spec 'ram'",
    transition_ext("cyclotomic:7:degree=x"):
        "bad degree in 'cyclotomic:7:degree=x'",
    transition_ext("cyclotomic:7:degree=0"): "degree must be >= 1",
    transition_ext("cyclotomic:14:gens=7"):
        "subgroup generator 7 not a unit mod 14",
    # named as written, not as its residue 0
    transition_ext("cyclotomic:7:gens=7"):
        "subgroup generator 7 not a unit mod 7",
    TRANSITION_23_LOCAL + ("23",): "bad --local '23'; use ell=typespec",
    TRANSITION_23_LOCAL + ("x=sc",): "bad prime in --local 'x=sc'",
    transition_ext("cyclotomic:23"): "bad field spec 'cyclotomic:23'",
    transition_ext("cyclotomic:x:degree=11"):
        "bad conductor in 'cyclotomic:x:degree=11'",
    transition_ext("cyclotomic:0:degree=1"):
        "conductor must be >= 1 in 'cyclotomic:0:degree=1'",
    transition_ext("cyclotomic:23:gens=2,x"):
        "bad generator list in 'cyclotomic:23:gens=2,x'",
    transition_ext("cyclotomic:23:index=11"):
        "bad field spec 'cyclotomic:23:index=11'",
    ("hv", "--form", "special:ram,maybe", "--p", "5", "--e", "5"):
        "bad character spec 'ram,maybe'",
    ("hv", "--form", "special:ram,triv", "--p", "5", "--e", "5"):
        "ram characters need a dies|survives flag: 'ram,triv'",
    ("hv", "--form", "special:unram,triv,dies", "--p", "5", "--e", "5"):
        "dies/survives only applies to ram characters",
    ("hv", "--form", "ramps:ram,triv,dies", "--p", "5", "--e", "5"):
        "ramps spec needs two characters: 'ramps:ram,triv,dies'",
    ("hv", "--form", "ups:a=1", "--p", "5", "--e", "5"):
        "ups spec needs exactly a=..,c=..: 'ups:a=1'",
    ("hv", "--form", "generic:1,x", "--p", "5", "--e", "5"):
        "bad generic values in 'generic:1,x'",
    # no values: the grammar refuses it before Generic's own check
    ("hv", "--form", "generic:", "--p", "3", "--e", "3"):
        "bad generic values in 'generic:'",
    ("hv", "--form", "generic:1,2,3", "--p", "5", "--e", "5"):
        "generic data length 3 is not a power of 5",
    ("hv", "--form", "sc:", "--p", "5", "--e", "5"):
        "bad local type spec 'sc:'",
    HV_TABLE + ("table:TABLE_HEADER",):
        "TABLE_HEADER: line 1: expected header 'weight k level N'",
    HV_TABLE + ("table:TABLE_NOT_PRIME",):
        "TABLE_NOT_PRIME: line 2: index 4 is not prime",
    HV_TABLE + ("table:TABLE_TWICE",):
        "TABLE_TWICE: line 3: duplicate entry for 2",
    ("hv", "--form", "ups:a=x,c=1", "--p", "5", "--e", "5"):
        "bad integer in 'ups:a=x,c=1'",
    ("hv", "--form", "ec:a1=0", "--p", "5", "--ell", "7", "--e", "5"):
        "curve is singular (discriminant 0)",
    transition_ext("cyclotomic:23:degree=22"):
        "[F':F] = 22 is not a power of 11",
    transition_ext("cyclotomic:23:degree=23"):
        "(Z/23)^* has no subgroup of index 23",
}
# argv the parser refuses, exit 2, each with argparse's message: an
# unknown flag, a flag without its value, a bad integer, a bad choice, an
# abbreviated flag (once accepted as a unique prefix) and a repeated
# single-value flag (once the last won)
USAGE_ERRORS = {
    ("tau", "--n", "23", "--bogus", "5"):
        "unrecognized arguments: --bogus 5",
    ("tau", "--n"): "argument --n: expected one argument",
    ("tau", "--n", "x"): "argument --n: invalid int value: 'x'",
    TRANSITION_23 + ("--p", "11", "--kind", "bogus"):
        "argument --kind: invalid choice: 'bogus' (choose from "
        "'algebraic', 'analytic', 'plus', 'minus')",
    ("transition", "--form", "delta", "--base", "Q", "--ex",
     "cyclotomic:23:degree=11", "--lamb", "1", "--mu", "0", "--p", "11"):
        "unrecognized arguments: --ex cyclotomic:23:degree=11 --lamb 1",
    ("tau", "--n", "5", "--n", "23"): "argument --n: given twice",
}
HOSTILE_INPUTS = [(argv, None, 3) for argv in [
    # malformed inputs: exit 3
    *HV_P_NOT_ODD_PRIME,
    ("transition", "--form", "delta", "--p", "1", "--base", "Q", "--ext",
     "cyclotomic:13:degree=1", "--lambda", "0", "--mu", "0",
     "--local", "13=generic:1,2"),
    ("hv", "--form", "sc", "--e", "0"),
    *TAU_MOD_BELOW_1,
    *TAU_BELOW_1,
    TRANSITION_23 + ("--p", "4"),
    TRANSITION_23 + ("--p", "-3"),
    ("hv", "--form", "delta", "--p", "11", "--ell", "4", "--e", "11"),
    ("hv", "--form", "sc", "--ell", "4", "--ext", "cyclotomic:23:degree=11"),
    TRANSITION_23[:-2] + ("--mu", "-1", "--p", "11"),
    TRANSITION_23[:-4] + ("--lambda", "-1", "--mu", "0", "--p", "11"),
    HV_ELL_IS_P,
    ("tau", "--config", "CONFIG"),
    ("hv", "--form", "sc", "--e", "5", "--config", "CONFIG"),
    ("verify", "--suite", "hasse", "--config", "CONFIG"),
    ("verify", "--suite", "hasse", "--size", "0"),
    ("verify", "--suite", "hasse", "--size", "-1"),
    ("verify", "--suite", "tower-additivity", "--size", "0"),
    ("verify", "--suite", "group-identity", "--size", "0"),
    HV_TABLE + ("table:TABLE_WORD",),
    HV_TABLE + ("table:TABLE_FIELD",),
    HV_TABLE + ("table:TABLE_WEIGHT_1",),
    HV_TABLE + ("table:DIR",),
    HV_TABLE + ("table:NON_ASCII",),
    ("tau", "--config", "DIR"),
    ("tau", "--config", "NON_ASCII"),
    *LOCAL_NOT_PRIME,
    LOCAL_TWICE,
    UPS_KEY_TWICE,
    EC_KEY_TWICE,
    DEGREE_NOT_UNIQUE,
    ("tau", "--config", "CONFIG_TWICE"),
    ("tau", "--config", "CONFIG_UNKNOWN"),
    *CONFIG_OVERRIDDEN,
    *MISSING_FLAGS,
    *MALFORMED,
]] + [(argv, None, 2) for argv in [
    # refused by the parser: exit 2
    *USAGE_ERRORS,
    # past a work bound: exit 2
    ("verify", "--suite", "hasse", "--size", "8001"),
    ("verify", "--suite", "hasse", "--size", "100000"),
    ("verify", "--suite", "tower-additivity", "--size", "2198"),
    ("verify", "--suite", "group-identity", "--size", "201"),
    transition_ext("cyclotomic:1000000000039:gens=2"),
    ("hv", "--form", EC_11, "--p", "5", "--ell", "100003", "--e", "5"),
    # 2^61 - 1: primality by trial division would take minutes
    ("hv", "--form", "sc", "--p", str(2 ** 61 - 1), "--e", "5"),
    ("hv", "--form", "delta", "--p", "11", "--ell", str(2 ** 61 - 1),
     "--e", "11"),
    TRANSITION_23 + ("--p", str(2 ** 61 - 1)),
    # discriminant about 6.4e28: trial division would take hours
    HV_BIG_CURVE,
    *BIG_CURVE_AT_PARSE,
    HV_TABLE + ("table:TABLE_HUGE_PRIME",),
    # a domain error: a well-formed table without the prime asked
    HV_TABLE + ("table:TABLE_NO_7",),
    # a domain error: no tower with mu = 0 has a negative lambda
    NEGATIVE_LAMBDA,
    # a domain error: Q(zeta_11)'s 11-tower is no unramified field's
    TAME_AT_P,
    LOCAL_PAST_BOUND,
    *DOMAIN_ERRORS,
]] + [
    (NO_LOCAL_TYPE, None, 4),
    (("tau", "--n", "5"), {"KIDA_PRECISION": "1000000"}, 2),
    *PRECISION_BELOW_1,
    *DELTA_PAST_BUDGET,
]
# the full stderr of rows whose message names its source (a file by the
# name that stands for it); a row with an environment is keyed with it
HOSTILE_STDERR = {
    HV_TABLE + ("table:TABLE_FIELD",):
        "TABLE_FIELD: line 2: expected integers",
    HV_TABLE + ("table:TABLE_HUGE_PRIME",):
        "TABLE_HUGE_PRIME: line 2: 618970019642690137449562111 beyond the "
        "trial-division bound 10^14",
    HV_TABLE + ("table:TABLE_NO_7",): "table has no entry for 7",
    **dict.fromkeys(
        (HV_BIG_CURVE, *BIG_CURVE_AT_PARSE),
        "curve discriminant 64000001776000017184000056944 beyond the "
        "trial-division bound 10^14"),
    NEGATIVE_LAMBDA:
        "local sum -1594323 with lambda.in = 0 at degree 4782969 gives "
        "lambda.out = -1594323 < 0",
    TAME_AT_P:
        "cyclotomic:11:gens= is tamely ramified at 11 (e = 10): its "
        "11-tower is not that of a field unramified at 11",
    LOCAL_NOT_PRIME[0]: "--local '4=sc': 4 is not prime",
    LOCAL_NOT_PRIME[1]: "--local '0=sc': 0 is not prime",
    LOCAL_NOT_PRIME[2]: "--local '-7=sc': -7 is not prime",
    LOCAL_TWICE: "--local '23=ups:a=10,c=1': 23 given twice",
    UPS_KEY_TWICE: "'ups:a=1,a=2,c=1': a given twice",
    EC_KEY_TWICE: "'ec:a3=1,a2=-1,a4=-10,a6=-20,a6=5': a6 given twice",
    DEGREE_NOT_UNIQUE: "index-3 subgroup of (Z/91)^* is not unique "
                       "(4 candidates); use gens=...",
    TAU_BELOW_1[0]: "--n must be >= 1",
    TAU_BELOW_1[1]: "--n must be >= 1",
    **{argv: "--mod must be >= 1" for argv in TAU_MOD_BELOW_1},
    LOCAL_PAST_BOUND:
        "--local '1000000000039=sc': 1000000000039 beyond bound "
        "1000000000000",
    **{(argv, *env.items()): f"bad KIDA_PRECISION value "
       f"{env['KIDA_PRECISION']!r}" for argv, env, _ in PRECISION_BELOW_1},
    **{(argv, *env.items()): DELTA_BUDGETS[env["KIDA_PRECISION"]]
       for argv, env, _ in DELTA_PAST_BUDGET},
    ("tau", "--config", "CONFIG"): "CONFIG:2: unknown key 'p'",
    ("hv", "--form", "sc", "--e", "5", "--config", "CONFIG"):
        "CONFIG:1: unknown key 'n'",
    ("verify", "--suite", "hasse", "--config", "CONFIG"):
        "CONFIG:1: unknown key 'n'",
    ("tau", "--config", "CONFIG_TWICE"): "CONFIG_TWICE:2: key 'n' given twice",
    ("tau", "--config", "CONFIG_UNKNOWN"):
        "CONFIG_UNKNOWN:2: unknown key 'bogus'",
    CONFIG_OVERRIDDEN[0]: "CONFIG_N: bad value 'abc' for n",
    CONFIG_OVERRIDDEN[1]: "CONFIG_KIND: bad value 'bogus' for kind",
    **{argv: f"--p {argv[4]} is not an odd prime"
       for argv in HV_P_NOT_ODD_PRIME},
    HV_ELL_IS_P: "--ell must differ from --p",
    NO_LOCAL_TYPE: "no form and no local type supplied for ramified prime 11",
    **DOMAIN_ERRORS,
    **MISSING_FLAGS,
    **MALFORMED,
    **USAGE_ERRORS,
}


def _case_id(case):
    argv, env, _ = case
    return " ".join([f"{k}={v}" for k, v in (env or {}).items()] + list(argv))


def with_files(argv, tmp_path):
    """A hostile row's argv with each BAD_FILES name replaced by the path
    of a file written under ``tmp_path`` (DIR by ``tmp_path`` itself), and
    the name -> path map."""
    paths = {"DIR": str(tmp_path)}
    for name, text in BAD_FILES.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_bytes(text.encode())
    return [head + sep + paths.get(name, name)
            for head, sep, name in (a.rpartition(":") for a in argv)], paths


@pytest.mark.parametrize("argv, env, code", HOSTILE_INPUTS,
                         ids=list(map(_case_id, HOSTILE_INPUTS)))
def test_bad_input_is_a_typed_error(argv, env, code, tmp_path):
    message = HOSTILE_STDERR.get((argv, *env.items()) if env else argv)
    usage = argv in USAGE_ERRORS
    argv, paths = with_files(argv, tmp_path)
    got, out, err = run_cli(*argv, env_extra=env, timeout=10)
    assert got == code and out == "" and "Traceback" not in err
    if usage:
        # argparse's layout: a usage line, then the error line
        line, error = err.splitlines()
        assert line.startswith(f"usage: kida {argv[0]} ")
        assert error == f"kida {argv[0]}: error: {message}"
        return
    assert err.startswith("error: ")
    if message is not None:
        # a file name stands first, alone or before ":<line>"
        name, sep, rest = message.partition(": ")
        name, colon, line = name.partition(":")
        assert err == (f"error: {paths.get(name, name)}{colon}{line}"
                       f"{sep}{rest}\n")


CONFIG_KEYS = {
    "tau": {"n", "mod"},
    "hv": {"form", "p", "ell", "e", "ext"},
    "transition": {"form", "p", "base", "ext", "lambda", "mu", "kind"},
    "verify": {"suite", "seed", "size"},
}
# a well-formed value for each config key
CONFIG_VALUES = {"n": "23", "mod": "11", "form": "delta", "p": "11",
                 "ell": "23", "e": "11", "ext": "cyclotomic:23:degree=11",
                 "base": "Q", "lambda": "1", "mu": "0", "kind": "analytic",
                 "suite": "hasse", "seed": "3", "size": "30"}


def _parse(argv):
    """``cli.parse_args(argv)``, or the exit code of a refusal; stdout
    and stderr are swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.parse_args(argv)
        except SystemExit as exc:
            return exc.code


def test_config_keys_are_the_single_value_options(tmp_path):
    config = tmp_path / "run.conf"
    for cmd, keys in CONFIG_KEYS.items():
        # the table's single-value flags but --config, without dashes
        _, _, options = cli.COMMANDS[cmd]
        assert {flag[2:] for flag, _, cast, _ in options
                if cast not in (cli.SWITCH, cli.APPEND)} - {"config"} == keys
        # a file naming each of them sets each; any other key is refused
        config.write_text("".join(f"{key} = {CONFIG_VALUES[key]}\n"
                                  for key in sorted(keys)))
        args = _parse([cmd, "--config", str(config)])
        cli._apply_config(args)
        dests = {flag[2:]: dest for flag, dest, _, _ in options}
        assert {key for key in keys
                if getattr(args, dests[key]) is not None} == keys
        for key in ("config", "json", "local", "assert-hypotheses", "bogus"):
            config.write_text(f"{key} = x\n")
            with pytest.raises(SpecParseError,
                               match=f"run.conf:1: unknown key '{key}'"):
                cli._apply_config(_parse([cmd, "--config", str(config)]))


def test_bad_config_value_names_key_and_file(tmp_path, capsys):
    # a value the key's type cannot cast, and values outside its choices
    for argv, text in ((["tau"], "n = abc"),
                       (TRANSITION_23 + ("--p", "11"), "kind = bogus"),
                       (["verify"], "suite = bogus")):
        config = tmp_path / "run.conf"
        config.write_text(text + "\n", encoding="ascii")
        assert cli.main([*argv, "--config", str(config)]) == 3
        key, value = text.split(" = ")
        assert capsys.readouterr() == (
            "", f"error: {config}: bad value {value!r} for {key}\n")


def retired_parser(allow_abbrev=False):
    """The argparse parser the table replaced, built from it: one
    subparser per command, one ``add_argument`` per option."""
    ap = argparse.ArgumentParser(prog="kida", allow_abbrev=allow_abbrev)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (handler, line, options) in cli.COMMANDS.items():
        command = sub.add_parser(name, help=line, allow_abbrev=allow_abbrev)
        for flag, dest, cast, text in options:
            kwargs = ({"action": "store_true"} if cast is cli.SWITCH
                      else {"action": "append"} if cast is cli.APPEND
                      else {"choices": cast} if isinstance(cast, tuple)
                      else {"type": cast})
            command.add_argument(flag, dest=dest, help=text, **kwargs)
        command.set_defaults(handler=handler)
    return ap


def _retired(argv, allow_abbrev=False):
    """The retired parser's namespace as a dict, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(retired_parser(allow_abbrev).parse_args(argv))
        except SystemExit as exc:
            return exc.code


# value draws per cast: negative integers, values that look like flags
# (refused, but not "-", "-5", "-.5" or a dash word holding a space) and
# bad integers and choices; "--" is left out, which argparse 3.11 drops
# from a value ("--n=--" gave n = [])
INT_VALUES = ("5", "-5", "0", "23", " 7", "5_0", "x", "", "1.5", "-1.5",
              "-x", "--json", "--bogus", "-", "-.5")
STR_VALUES = ("delta", "Q", "cyclotomic:23:degree=11", "-x", "-", "-x y",
              "-.5", "-5", "23=sc", "", "--n=a b", "--json", "--bogus", "=")
EXTRA_TOKENS = ("--bogus", "--bogus=1", "5", "-5", "-x", "--json=1",
                "--lamb", "--ex", "--su", "x y", "--n=")


def _draw(rng, cmd):
    """One seeded argv for ``cmd``: a random subset of its options in
    random order, each single-value flag once, ``--local`` up to three
    times, ``--flag value`` or ``--flag=value`` forms, a value at times
    left out, and at times a stray token."""
    argv = [cmd]
    _, _, options = cli.COMMANDS[cmd]
    for flag, _, cast, _ in rng.sample(options, rng.randint(0, len(options))):
        for _ in range(rng.randint(1, 3) if cast is cli.APPEND else 1):
            if cast is cli.SWITCH:
                argv.append(flag)
                continue
            values = (INT_VALUES if cast is int
                      else (*cast, "bogus", "") if isinstance(cast, tuple)
                      else STR_VALUES)
            value = rng.choice(values)
            shape = rng.random()
            argv += ([f"{flag}={value}"] if shape < 0.3 else [flag]
                     if shape < 0.35 else [flag, value])
    if rng.random() < 0.2:
        argv.insert(rng.randint(1, len(argv)), rng.choice(EXTRA_TOKENS))
    return argv


@pytest.mark.parametrize("seed", range(4))
def test_parser_matches_the_retired_parser(seed):
    # seeded draws over every command: the same namespace from both
    # parsers, or exit 2 from both
    rng = random.Random(f"cli-oracle:{seed}")
    outcomes = set()
    for _ in range(250):
        argv = _draw(rng, rng.choice(list(cli.COMMANDS)))
        ours, theirs = _parse(argv), _retired(argv)
        ours = ours if isinstance(ours, int) else vars(ours)
        assert ours == theirs, argv
        outcomes.add(ours == 2)
    assert outcomes == {True, False}     # both refusals and namespaces


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--json"], ["-x", "tau"],
                                  ["tau", "--n", "5", "--"]])
def test_command_choice_matches_the_retired_parser(argv):
    assert _parse(argv) == _retired(argv) == 2


@pytest.mark.parametrize("argv, accepted", [
    (["transition", "--lamb", "1", "--ex", "cyclotomic:23:degree=11"],
     {"lam": 1, "ext": "cyclotomic:23:degree=11"}),
    (["verify", "--su", "hasse"], {"suite": "hasse"}),
    (["tau", "--n=23", "--mo", "11"], {"n": 23, "mod": 11}),
])
def test_abbreviated_flags_exit_2(argv, accepted, capsys):
    # stated decision: a unique prefix of a flag was accepted
    theirs = _retired(argv, allow_abbrev=True)
    assert {key: theirs[key] for key in accepted} == accepted
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"kida {argv[0]}: error: unrecognized arguments: ")


@pytest.mark.parametrize("argv, flag", [
    (["tau", "--n", "5", "--n", "23"], "--n"),
    (["tau", "--n", "23", "--mod=11", "--mod", "11"], "--mod"),
    (["transition", "--kind", "plus", "--kind=minus"], "--kind"),
    (["verify", "--suite", "hasse", "--config", "a", "--config=b"],
     "--config"),
])
def test_repeated_flags_exit_2(argv, flag, capsys):
    # stated decision: the last value of a repeated flag won
    assert _retired(argv) != 2
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"kida {argv[0]}: error: argument {flag}: given twice")


def test_repeated_switches_and_locals_are_kept():
    args = cli.parse_args(["transition", "--json", "--json", "--local",
                           "23=sc", "--local=-7=sc", "--assert-hypotheses"])
    assert args.json is args.assert_hypotheses is True
    assert args.local == ["23=sc", "-7=sc"]


@pytest.mark.parametrize("argv, cmd", [(["--help"], None),
                                       (["-h", "tau"], None),
                                       (["transition", "--p", "11", "-h"],
                                        "transition")])
def test_help_lists_and_exits_0(argv, cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    usage, *rows = out.splitlines()
    assert usage.startswith(f"usage: kida {cmd or '{tau,hv,'}")
    expected = ([(name, text) for name, (_, text, _) in cli.COMMANDS.items()]
                if cmd is None else
                [(flag, text) for flag, _, _, text in cli.COMMANDS[cmd][2]])
    assert len(rows) == len(expected)
    for row, (name, text) in zip(rows, expected):
        assert row.split()[0] == name and row.endswith(" " + text)


@pytest.mark.parametrize("spec", [
    "cyclotomic:10000000000000000051:degree=2",
    "cyclotomic:1000000000039:gens=2"])
def test_conductor_beyond_bound_exits_2(spec):
    code, out, err = run_cli("transition", "--form", "delta", "--p", "11",
                             "--base", "Q", "--ext", spec, "--lambda", "1",
                             "--mu", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: conductor ") and "Traceback" not in err


def test_large_conductor_degree_spec_resolves():
    # (Z/255255)^* has 5-part C_5, so its index-5 subgroup is written down
    # directly: the field is the quintic subfield of Q(zeta_11)
    code, out, err = run_cli("hv", "--form", "sc", "--ell", "11", "--ext",
                             "cyclotomic:255255:degree=5")
    assert code == 0, err
    assert "e = 5" in out.splitlines()


def _run_python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)


def test_cli_runs_without_numpy():
    proc = _run_python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import kida.cli\n"
        "sys.exit(kida.cli.main(['verify', '--suite', 'group-identity', "
        "'--size', '16']))\n")
    assert proc.returncode == 0, proc.stderr
    assert "result = pass" in proc.stdout.splitlines()


def test_cli_import_leaves_numpy_out():
    proc = _run_python("import sys, kida.cli\n"
                       "print('numpy' in sys.modules)\n")
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


def test_each_error_class_carries_its_exit_code(monkeypatch, capsys):
    # the table main dispatched on before the codes moved onto the
    # classes: 4 missing local data, 3 malformed input, 2 the rest
    from kida import errors
    classes = [obj for obj in vars(errors).values() if isinstance(obj, type)
               and issubclass(obj, errors.KidaError)]
    old = {"MissingLocalType": 4, "SpecParseError": 3, "NotASubfield": 3,
           "NotPPower": 3}
    assert set(old) < {klass.__name__ for klass in classes}
    monkeypatch.delenv("KIDA_PRECISION", raising=False)
    for klass in classes:
        assert klass.exit_code == old.get(klass.__name__, 2), klass

        # main returns the code of what a handler raises
        def handler(args, klass=klass):
            raise klass("boom")
        monkeypatch.setitem(cli.COMMANDS, "tau",
                            (handler, *cli.COMMANDS["tau"][1:]))
        assert cli.main(["tau"]) == klass.exit_code
    assert capsys.readouterr().err == "error: boom\n" * len(classes)


GOLDEN_HV_23 = """a = 10
c = 1
case = no_trivial_frobenius_eigenvalue
e = 11
ell = 23
extension = cyclotomic:23:degree=11
form = delta
h = 0
p = 11
path = table
type = ups:a=10,c=1
"""
# One spec per row of the hv case table: full stdout, in process.
HV_CASES = [
    ("ups:a=2,c=1 --p 11 --e 11", """a = 2
c = 1
case = both_frobenius_eigenvalues_trivial
e = 11
h = 20
p = 11
path = table
type = ups:a=2,c=1
"""),
    ("ups:a=5,c=4 --p 11 --e 11", """a = 5
c = 4
case = one_frobenius_eigenvalue_trivial
e = 11
h = 10
p = 11
path = table
type = ups:a=5,c=4
"""),
    ("ups:a=10,c=1 --p 11 --e 11", """a = 10
c = 1
case = no_trivial_frobenius_eigenvalue
e = 11
h = 0
p = 11
path = table
type = ups:a=10,c=1
"""),
    ("special:unram,nontriv --p 5 --e 5", """case = character_nontrivial_mod_p
e = 5
h = 0
p = 5
path = table
type = special:unram,nontriv
"""),
    ("special:unram,triv --p 5 --e 5", """case = character_unramified_trivial_mod_p
e = 5
h = 4
p = 5
path = table
type = special:unram,triv
"""),
    ("special:ram,triv,dies --p 5 --e 5", """case = character_dies_over_extension
e = 5
h = -1
p = 5
path = table
type = special:ram,triv,dies
"""),
    ("special:ram,triv,survives --p 5 --e 5", """case = character_survives_ramified
e = 5
h = 0
p = 5
path = table
type = special:ram,triv,survives
"""),
    ("ramps:unram,triv;ram,triv,dies --p 5 --e 5", """case = character_unramified_trivial_mod_p+character_dies_over_extension
e = 5
h = 3
p = 5
path = table
type = ramps:unram,triv;ram,triv,dies
"""),
    ("sc --e 5", """case = supercuspidal_or_extraordinary
e = 5
h = 0
path = table
type = sc
"""),
    ("generic:2,0,0 --p 3 --e 3", """case = generic_m_summation
e = 3
h = 4
p = 3
path = generic
type = generic:2,0,0
"""),
]
# A dying character over a place with e = 1, by --e and by a field in
# which 7 is unramified: no ramified character dies over the trivial
# extension, so m = h = 0.
HV_TRIVIAL_EXTENSION = [
    ("--e 1", """case = character_survives_ramified
e = 1
h = 0
p = 5
path = table
type = special:ram,triv,dies
"""),
    ("--ell 7 --ext cyclotomic:11:degree=5", """case = character_survives_ramified
e = 1
extension = cyclotomic:11:degree=5
h = 0
p = 5
path = table
type = special:ram,triv,dies
"""),
]


GOLDEN_TRANSITION_23 = """base = Q
degree = 11
extension = cyclotomic:23:gens=22
form = delta
hypothesis.archimedean_rank_condition = true
hypothesis.graded_pieces_residually_distinct = true
hypothesis.inertia_coinvariants_divisible = true
hypothesis.residual_invariants_vanish = true
kind = algebraic
lambda.in = 1
lambda.out = 11
local.23.contribution = 0
local.23.degree = 11
local.23.h = 0
local.23.m = 0
local.23.path = table
local.23.places = 1
local.23.type = ups:a=10,c=1
mu.in = 0
mu.out = 0
p = 11
"""


# the quintic field of conductor 11, written at 15015: it is printed at
# its conductor, which p = 5 does not divide, so it is not reduced and
# carries no ramification warning
GOLDEN_TRANSITION_15015 = """base = Q
degree = 5
extension = cyclotomic:11:gens=10
form = delta
hypothesis.archimedean_rank_condition = false
hypothesis.graded_pieces_residually_distinct = false
hypothesis.inertia_coinvariants_divisible = false
hypothesis.residual_invariants_vanish = false
kind = algebraic
lambda.in = 1
lambda.out = 13
local.11.contribution = 8
local.11.degree = 5
local.11.h = 8
local.11.m = 8
local.11.path = table
local.11.places = 1
local.11.type = ups:a=2,c=1
mu.in = 0
mu.out = 0
p = 5
warning.0 = standard hypotheses not asserted by the caller; the formula \
is applied formally
"""


class TestTau:
    def test_tau_23(self):
        code, out, _ = run_cli("tau", "--n", "23")
        assert code == 0 and out == "18643272\n"

    def test_tau_1(self):
        code, out, _ = run_cli("tau", "--n", "1")
        assert code == 0 and out == "1\n"

    def test_tau_1123_mod_11(self):
        code, out, _ = run_cli("tau", "--n", "1123", "--mod", "11",
                               env_extra={"KIDA_PRECISION": "1200"})
        assert code == 0 and out == "2\n"

    def test_precision_exceeded_exit_2(self):
        code, out, err = run_cli("tau", "--n", "50",
                                 env_extra={"KIDA_PRECISION": "40"})
        assert code == 2 and "error" in err

    def test_env_precision_allows_exact_budget(self):
        code, out, _ = run_cli("tau", "--n", "40",
                               env_extra={"KIDA_PRECISION": "40"})
        assert code == 0

    @pytest.mark.parametrize("n", ["999999", "5"])
    def test_hostile_budget_exits_2_promptly(self, n):
        # a budget past MAX_PRECISION is refused before any coefficient
        # is built; subprocess.run raises TimeoutExpired on a hang
        code, out, err = run_cli("tau", "--n", n, timeout=10,
                                 env_extra={"KIDA_PRECISION": "1000000"})
        assert code == 2 and out == ""
        assert err.startswith("error: precision budget 1000000 beyond bound")
        assert "Traceback" not in err


class TestHv:
    def test_golden_23(self):
        code, out, _ = run_cli("hv", "--form", "delta", "--p", "11",
                               "--ell", "23", "--ext",
                               "cyclotomic:23:degree=11")
        assert code == 0
        assert out == GOLDEN_HV_23

    def test_1123(self):
        code, out, _ = run_cli("hv", "--form", "delta", "--p", "11",
                               "--ell", "1123", "--ext",
                               "cyclotomic:1123:degree=11",
                               env_extra={"KIDA_PRECISION": "1200"})
        assert code == 0
        assert "h = 20" in out.splitlines()

    def test_supercuspidal(self):
        code, out, _ = run_cli("hv", "--form", "sc", "--e", "5")
        assert code == 0
        lines = out.splitlines()
        assert "h = 0" in lines and "type = sc" in lines

    def test_level_prime_exit_2(self):
        code, _, err = run_cli(
            "hv", "--form", "ec:a1=0,a2=-1,a3=1,a4=-10,a6=-20",
            "--p", "5", "--ell", "11", "--e", "5")
        assert code == 2

    def test_determinism(self):
        args = ("hv", "--form", "ups:a=2,c=1", "--p", "11", "--e", "11")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second and first[0] == 0

    def test_generic_local_type(self):
        code, out, _ = run_cli("hv", "--form", "generic:2,0,0",
                               "--p", "3", "--e", "3")
        assert code == 0
        lines = out.splitlines()
        assert "h = 4" in lines and "path = generic" in lines

    def test_special_char_spec(self):
        code, out, _ = run_cli("hv", "--form", "special:ram,triv,dies",
                               "--e", "7")
        assert code == 0
        assert "h = -1" in out.splitlines()

    @pytest.mark.parametrize("prefix", lf._LINE_PREFIXES + lf._P_PREFIXES)
    def test_a_bad_local_type_is_refused_as_transition_does(self, prefix,
                                                            capsys):
        # hv --form and transition --local read one grammar: a spec that
        # opens with a prefix's word and a colon but does not parse (sc:
        # among them) is a bad local type in both, not a bad form
        bad = prefix.rstrip(":") + ":"
        assert cli.main(["hv", "--form", bad, "--p", "5", "--e", "5"]) == 3
        err = capsys.readouterr().err
        assert cli.main(["transition", "--p", "5", "--base", "Q", "--ext",
                         "cyclotomic:11:degree=5", "--lambda", "2", "--mu",
                         "0", "--local", f"11={bad}"]) == 3
        assert capsys.readouterr().err == err
        assert err.startswith("error: ") and "form spec" not in err

    @pytest.mark.parametrize("argv,expected", HV_CASES,
                             ids=[a.split()[0] for a, _ in HV_CASES])
    def test_case_table(self, argv, expected, capsys):
        assert cli.main(["hv", "--form", *argv.split()]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv,expected", HV_TRIVIAL_EXTENSION,
                             ids=["e", "ext"])
    def test_dying_character_at_e_1(self, argv, expected, capsys):
        assert cli.main(["hv", "--form", "special:ram,triv,dies", "--p", "5",
                         *argv.split()]) == 0
        assert capsys.readouterr().out == expected


class TestTransition:
    def test_golden_23(self):
        code, out, _ = run_cli(
            "transition", "--form", "delta", "--p", "11", "--base", "Q",
            "--ext", "cyclotomic:23:degree=11", "--lambda", "1",
            "--mu", "0", "--assert-hypotheses")
        assert code == 0
        assert out == GOLDEN_TRANSITION_23

    def test_golden_15015(self, capsys):
        assert cli.main([
            "transition", "--form", "delta", "--p", "5", "--base", "Q",
            "--ext", "cyclotomic:15015:degree=5", "--lambda", "1",
            "--mu", "0"]) == 0
        assert capsys.readouterr().out == GOLDEN_TRANSITION_15015

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_1123_lambda_31(self, flags):
        code, out, _ = run_cli(*TRANSITION_1123, *flags,
                               env_extra={"KIDA_PRECISION": "1200"})
        assert code == 0
        doc = json.loads(out) if flags else dict(
            line.split(" = ", 1) for line in out.splitlines())
        assert int(doc["lambda.out"]) == 31
        assert int(doc["local.1123.places"]) == 1

    def test_local_degree_3_to_the_20_is_priced_in_constant_time(self):
        # ell = 26 * 3^20 + 1: one place of local degree 3^20 with
        # 3^19 places above it in the tower; a twist-by-twist sum would
        # visit 3^20 characters
        code, out, err = run_cli(
            "transition", "--p", "3", "--base", "Q",
            "--ext", "cyclotomic:90656394427:degree=3486784401",
            "--local", "90656394427=ups:a=2,c=1", "--lambda", "0",
            "--mu", "0", timeout=10)
        assert code == 0, err
        assert 8105110303713429600 == 3 ** 19 * 2 * (3 ** 20 - 1)
        assert "lambda.out = 8105110303713429600" in out.splitlines()

    def test_identity_extension(self):
        code, out, _ = run_cli(
            "transition", "--form", "delta", "--p", "11",
            "--base", "cyclotomic:23:degree=11",
            "--ext", "cyclotomic:23:degree=11",
            "--lambda", "7", "--mu", "0", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["lambda.out"] == 7 and doc["degree"] == 1

    def test_mu_nonzero_exit_2(self):
        code, _, err = run_cli(
            "transition", "--form", "delta", "--p", "11", "--base", "Q",
            "--ext", "cyclotomic:23:degree=11", "--lambda", "0", "--mu", "1")
        assert code == 2

    def test_bad_field_spec_exit_3(self):
        code, _, _ = run_cli(
            "transition", "--form", "delta", "--p", "11", "--base", "Q",
            "--ext", "cyclotomic:banana:degree=11", "--lambda", "1",
            "--mu", "0")
        assert code == 3

    def test_missing_local_data_exit_4(self):
        code, _, _ = run_cli(
            "transition", "--p", "11", "--base", "Q",
            "--ext", "cyclotomic:23:degree=11", "--lambda", "1", "--mu", "0")
        assert code == 4

    def test_local_override_generic(self):
        code, out, _ = run_cli(
            "transition", "--p", "3", "--base", "Q",
            "--ext", "cyclotomic:7:degree=3", "--lambda", "2", "--mu", "0",
            "--local", "7=generic:2,0,0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["local.7.m"] == 4 and doc["lambda.out"] == 2 * 3 + 4
        # generic data is priced by its own path, with no table value
        assert doc["local.7.path"] == "generic" and "local.7.h" not in doc

    def test_json_and_kv_agree(self):
        args = ("transition", "--form", "delta", "--p", "11", "--base", "Q",
                "--ext", "cyclotomic:23:degree=11", "--lambda", "1",
                "--mu", "0")
        _, kv_out, _ = run_cli(*args)
        _, json_out, _ = run_cli(*args, "--json")
        doc = json.loads(json_out)
        kv = {}
        for line in kv_out.splitlines():
            key, val = line.split(" = ", 1)
            kv[key] = val
        assert set(kv) == set(doc)
        assert kv["lambda.out"] == str(doc["lambda.out"])

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "form = delta\np = 11\nbase = Q\n"
            "ext = cyclotomic:23:degree=11\nlambda = 1\nmu = 0\n",
            encoding="ascii")
        code, out, _ = run_cli("transition", "--config", str(conf), "--json")
        assert code == 0 and json.loads(out)["lambda.out"] == 11
        code, out, _ = run_cli("transition", "--config", str(conf),
                               "--lambda", "2", "--json")
        assert code == 0 and json.loads(out)["lambda.out"] == 22


class TestVerifyCommand:
    def test_path_agreement_pass(self):
        code, out, _ = run_cli("verify", "--suite", "path-agreement",
                               "--seed", "3")
        assert code == 0
        assert "result = pass" in out.splitlines()

    def test_tower_additivity_pass(self):
        code, out, _ = run_cli("verify", "--suite", "tower-additivity",
                               "--seed", "1", "--size", "27")
        assert code == 0

    def test_group_identity_small(self):
        code, out, _ = run_cli("verify", "--suite", "group-identity",
                               "--seed", "7", "--size", "30")
        assert code == 0

    def test_seeded_determinism(self):
        a = run_cli("verify", "--suite", "tower-additivity", "--seed", "5",
                    "--size", "9")
        b = run_cli("verify", "--suite", "tower-additivity", "--seed", "5",
                    "--size", "9")
        assert a == b

    def test_violation_exits_1(self, monkeypatch, capsys):
        def broken(name, seed=0, size=None):
            res = verify.SuiteResult("hasse", {})
            res.checks = 1
            res.fail("synthetic counterexample")
            return res
        monkeypatch.setattr(verify, "run_suite", broken)
        code = cli.main(["verify", "--suite", "hasse"])
        out = capsys.readouterr().out
        assert code == 1
        assert "result = FAIL" in out
        assert "counterexample.0 = synthetic counterexample" in out
