"""A standing mutation table: wrong edits of src/kida that named tests
must catch.

Each row names a file under src/kida, an exact old text, its
replacement, the tests that must fail on the result and why the edit is
wrong.  For each row, one at a time, the runner copies src/ to a
temporary directory, replaces the old text, and runs the row's tests on
the copy in one pytest subprocess.  A row fails when its old text is not
found exactly once (the row is stale: update it with the code), or when
one of its tests still passes (the mutant lives).  Before the rows, the
runner runs every row's tests once on the unchanged copy: they must pass
there, or a "kill" would show nothing.

Each pytest run leads its own session and gets TIMEOUT seconds.  A run
past it is ended with its whole process group: a mutant that makes a
loop endless counts as killed (``killed NAME: timeout``), and an
unchanged copy that times out fails the table.

The node ceilings of ``tests/test_startup.py`` and
``test_public_api.py::test_every_function_runs_on_a_documented_path``
are deselected: they fail on almost any edit, by a node count, an unrun
function or an unreached raise, and would kill every row.

    python tests/mutants.py          # from the repository root

Stdlib only; exit status 0 when every row is killed, 1 otherwise.  Not
part of the Tier-1 run (pytest collects ``test_*.py`` only).
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# seconds one pytest run may take: every row's tests together take 10 to
# 15 s on the unchanged copy (CPython 3.11 on a 2-vCPU x86-64 VM)
TIMEOUT = 120

DESELECT = ["--deselect=tests/test_startup.py::"
            "test_light_commands_load_exactly",
            "--deselect=tests/test_startup.py::"
            "test_commands_skip_what_they_do_not_run",
            "--deselect=tests/test_public_api.py::"
            "test_every_function_runs_on_a_documented_path"]

# (name, file, old text, new text, tests that must fail, why it is wrong)
ROWS = [
    ("trivial-eigenvalues-ignore-c", "localfactor.py",
     "if V.a == 2 % p and V.c == 1 % p:",
     "if V.a == 2 % p:",
     ["tests/test_localfactor.py::"
      "test_trivial_eigenvalues_count_the_root_one"],
     "x^2 - 2x + c has the double root 1 only when c = 1: ups:a=2,c=3 at "
     "p = 5 has no root 1, and its h is 0, not 2(e - 1)"),
    ("dying-character-priced-zero", "localfactor.py",
     'return "character_dies_over_extension", -1',
     'return "character_dies_over_extension", 0',
     ["tests/test_localfactor.py::TestMExtension::"
      "test_special_dying_ramified_trivial"],
     "a ramified character trivial mod p that dies over the extension "
     "loses its one invariant line: it costs -1 per place"),
    ("tower-ignores-residue-degree", "splitting.py",
     "    k += arith.padic_val(place.f, p)\n",
     "",
     ["tests/test_splitting.py::TestTowerPlaces::"
      "test_closed_form_matches_layer_walk_grid"],
     "when p divides the residue degree f, v_p(ell^f - 1) gains v_p(f), "
     "so the place keeps splitting v_p(f) layers longer"),
    ("base-residue-degree-dropped", "splitting.py",
     "f_prime_to_p=base.f // p ** arith.padic_val(base.f, p)))",
     "f_prime_to_p=1))",
     ["tests/test_end_to_end.py::TestInertBaseResidueDegree::"
      "test_cli_over_base_where_13_is_inert"],
     "13 is inert in Q(sqrt 2): the type over the base is that of "
     "Frobenius squared, not of Frobenius"),
    ("restriction-keeps-inertia-order", "localfactor.py",
     "new_order = self.order_on_inertia // math.gcd(self.order_on_inertia,\n"
     "                                                      degree)",
     "new_order = self.order_on_inertia",
     ["tests/test_localfactor.py::TestTowerAdditivity::test_all_tabulated"],
     "over a degree-d extension a character's order on inertia drops to "
     "order / gcd(order, d); kept, it never dies up the tower"),
    ("line-prefixes-swapped", "localfactor.py",
     '_LINE_PREFIXES = ("sc", "special:", "ramps:")',
     '_LINE_PREFIXES = ("sc", "ramps:", "special:")',
     ["tests/test_localfactor.py::TestGrammar::"
      "test_line_count_is_the_prefix",
      "tests/test_localfactor.py::TestGrammar::test_round_trips"],
     "the number of character lines is the grammar prefix: one line is "
     "special:, two are ramps:"),
    ("restriction-drops-a-line", "localfactor.py",
     "        for phi in self.chars:\n"
     "            chars += (phi.restricted(degree),)",
     "        for phi in self.chars[1:]:\n"
     "            chars += (phi.restricted(degree),)",
     ["tests/test_localfactor.py::TestGrammar::"
      "test_line_count_is_the_prefix",
      "tests/test_localfactor.py::TestTowerAdditivity::test_all_tabulated"],
     "restriction to a totally ramified extension keeps V "
     "two-dimensional: every line restricts, none is lost"),
    ("twist-counts-one-line", "localfactor.py",
     "            m += _m_char(phi, degree, exponent)",
     "            m = _m_char(phi, degree, exponent)",
     ["tests/test_localfactor.py::TestHTables::"
      "test_path_agreement_cross_product"],
     "m(V_chi) counts the invariant lines of the twist: both character "
     "lines of a ramified principal series, not the last alone"),
    ("generic-twist-ignores-quotient", "localfactor.py",
     "return self.m_values[self._step(degree) * exponent]",
     "return self.m_values[exponent]",
     ["tests/test_localfactor.py::TestMSingle::"
      "test_generic_reads_the_quotients_values",
      "tests/test_localfactor.py::TestTwistSum::"
      "test_generic_data_at_every_divisor_degree"],
     "a twist of the degree-d quotient is exponent (n / d) j of the "
     "degree-n data; read at j, it prices a character the quotient "
     "does not have"),
    ("generic-degree-unchecked", "localfactor.py",
     "        if n % degree:\n"
     "            raise IncoherentGenericData(\n"
     "                f\"generic data over degree {n} cannot serve degree "
     "{degree}\")\n",
     "",
     ["tests/test_cli.py::test_bad_input_is_a_typed_error"
      "[hv --form generic:1,0,0,0,0 --p 5 --e 25]",
      "tests/test_localfactor.py::TestTowerAdditivity::"
      "test_incoherent_generic_rejected"],
     "data over degree n serves only the degrees that divide n; past n "
     "the step n // d is 0 and every twist reads the trivial one, so a "
     "place would be priced 0"),
    ("sweep-class-count-assumed", "verify.py",
     "n_ann, n_classes = keys.count(0), len(set(keys))",
     "n_ann, n_classes = keys.count(0), h",
     ["tests/test_verify_suites.py::TestGroupIdentitySuite::"
      "test_split_restriction_classes_are_caught"],
     "the class count is read off the keys and checked against |H|; "
     "taken as |H|, keys that split a restriction class pass"),
    ("identity-drops-annihilator-term", "chargroup.py",
     "    rhs = rhs1 + rhs2\n",
     "    rhs = rhs2\n",
     ["tests/test_chargroup.py::TestGroupIdentity::"
      "test_one_dimensional_trivial",
      "tests/test_chargroup.py::TestGroupIdentity::"
      "test_z3_x_z9_random_all_subgroups"],
     "the right side is |H| times the sum over (G/H)^dual plus the sum "
     "over H^dual; without the first term it holds only for H = G"),
    ("restriction-logs-unreduced", "chargroup.py",
     "cols = [[sum(map(mul, c, f)) % e for c in chars]",
     "cols = [[sum(map(mul, c, f)) for c in chars]",
     ["tests/test_chargroup.py::TestGroupIdentity::"
      "test_zero_representation",
      "tests/test_chargroup.py::TestGroupIdentity::"
      "test_one_dimensional_trivial",
      "tests/test_chargroup.py::TestGroupIdentity::"
      "test_z9_regular_with_z3",
      "tests/test_chargroup.py::TestGroupIdentity::"
      "test_z3_x_z9_random_all_subgroups",
      "tests/test_chargroup.py::TestGroupIdentity::"
      "test_small_sweep_every_group_every_subgroup"],
     "a value log lives mod e: unreduced, equal restrictions get unequal "
     "keys, the classes outnumber |H| and check_group_identity's class "
     "count refuses them"),
    ("trace-oracle-unweighted", "chargroup.py",
     "e, w = _exponent_weights(W.group)",
     "e, w = math.lcm(*W.group), (1,) * len(W.group)",
     ["tests/test_chargroup.py::TestMultiplicity::"
      "test_trace_oracle_more_groups"],
     "a character's log at h weighs coordinate i by e/d_i; unweighted, "
     "the characters of C_2 x C_4 take wrong values on its elements"),
    ("group-chain-unchecked", "chargroup.py",
     "if any(x < 2 for x in d) or any(b % a for a, b in zip(d, d[1:])):",
     "if any(x < 2 for x in d):",
     ["tests/test_chargroup.py::TestMalformedGroupData::"
      "test_a_broken_chain_is_refused"],
     "a group is a chain of invariant factors, each dividing the next: "
     "(4, 2) and (2, 3) present groups too, but not in the form every "
     "walk over subgroups and characters reads"),
    ("tau-sum-off-by-one", "eta.py",
     "- 691 * 252 * conv, 756)",
     "- 691 * 252 * conv + 1, 756)",
     ["tests/test_qexp.py::TestTau::test_leading",
      "tests/test_qexp.py::TestTau::test_tau23_known_value"],
     "Ramanujan's identity makes 756 divide the sum exactly; a sum off by "
     "one leaves a remainder, and _tau refuses it"),
    ("extension-left-unreduced", "splitting.py",
     "    F, Fp = unramified_at_p_reduction(F, p), "
     "unramified_at_p_reduction(Fp, p)\n",
     "    F = unramified_at_p_reduction(F, p)\n",
     ["tests/test_splitting.py::TestConductorExactness::"
      "test_ramified_primes_divide_the_conductor"],
     "both fields are read through their reductions at p; an extension "
     "left as given keeps p in its conductor, and ramified_set refuses "
     "the pair"),
    ("ramification-fields-swapped", "splitting.py",
     "        base = efg(F, ell)\n"
     "        e_ext = efg(Fp, ell).e\n",
     "        base = efg(Fp, ell)\n"
     "        e_ext = efg(F, ell).e\n",
     ["tests/test_splitting.py::TestRamifiedSet::"
      "test_real_cyclotomic_23_extension",
      "tests/test_splitting.py::TestRamifiedSet::"
      "test_conductor_1123_extension"],
     "e at ell in the base divides e in the extension; read the other "
     "way round at a ramified ell, it does not, and ramified_set "
     "refuses the pair"),
    ("program-run-exits-0", "cli.py",
     "    os._exit(code)\n",
     "    os._exit(0)\n",
     ["tests/test_startup.py::test_a_program_run_ends_as_main_returns"],
     "a program run exits with main's code: 2 for a domain or usage "
     "error, 3 for malformed input, 4 for missing local data"),
    ("hv-ell-equal-to-p-accepted", "cli.py",
     "        if args.ell == args.p:\n"
     "            raise SpecParseError(\"--ell must differ from --p\")\n",
     "",
     ["tests/test_cli.py::test_bad_input_is_a_typed_error"
      "[hv --form delta --p 11 --ell 11 --e 11]"],
     "the formula prices places away from p, and hv's check is the only "
     "one: Frobenius data at ell = p is a number, not a local type"),
    ("efg-takes-any-ell", "splitting.py",
     "    arith.require_prime(\"ell\", ell)\n",
     "",
     ["tests/test_splitting.py::TestPresentationCaches::"
      "test_errors_raise_on_every_call",
      "tests/test_splitting.py::TestTowerPlaces::"
      "test_a_non_prime_ell_is_refused_by_efg"],
     "efg is the library's one check that ell is prime; without it "
     "tower_places' valuation loop never ends at ell = +-1"),
    ("local-type-refuses-p-2", "localfactor.py",
     "if prefix in _P_PREFIXES and p < 2:",
     "if prefix in _P_PREFIXES and p < 3:",
     ["tests/test_localfactor.py::TestGrammar::"
      "test_a_given_prime_is_read_as_it_is"],
     "the grammar asks only whether a prime was given; that p is odd is "
     "checked where p enters, and the library reads ups:/generic: at 2"),
    ("generic-priced-by-the-table", "localfactor.py",
     'path, hv_fields = "generic", ()',
     'path, hv_fields = "table", ()',
     ["tests/test_cli.py::TestHv::test_generic_local_type",
      "tests/test_cli.py::TestTransition::test_local_override_generic",
      "tests/test_records.py::"
      "test_place_report_equality_reads_its_local_type"],
     "generic data is the user's values, not a table case: its report "
     "path is generic and it prints no h line"),
    ("ups-left-unreduced", "localfactor.py",
     "return super().__new__(cls, a % p, c % p, p)",
     "return super().__new__(cls, a, c, p)",
     ["tests/test_records.py::test_normalisation_in_constructors"],
     "Frobenius data is read mod p: ups:a=-1,c=16 at p = 5 is "
     "ups:a=4,c=1, one type with one spec and one hash"),
    ("ramified-set-takes-any-p", "splitting.py",
     "    arith.require_prime(\"p\", p, odd=True)\n    for field in",
     "    for field in",
     ["tests/test_splitting.py::TestRamifiedSetCache::"
      "test_errors_raise_on_every_call"],
     "ramified_set is the library's one check that p is an odd prime "
     "for the reductions it calls"),
    ("tower-places-takes-any-p", "splitting.py",
     "    arith.require_prime(\"p\", p, odd=True)\n    if F.conductor",
     "    if F.conductor",
     ["tests/test_public_api.py::test_each_guard_refuses_with_its_class"
      f"[tower-places-p-{p}]" for p in (0, 1, 9)],
     "tower_places checks p for a library caller: p = 0 divides by zero, "
     "p = 1 names Q ramified at 1, and p = 9 counts a tower that is "
     "not one"),
    ("generators-checked-reduced", "splitting.py",
     "        for g in subgroup_gens:\n",
     "        for g in sorted({g % conductor for g in subgroup_gens}):\n",
     ["tests/test_cli.py::test_bad_input_is_a_typed_error"
      "[transition --form delta --base Q --ext cyclotomic:7:gens=7 "
      "--lambda 1 --mu 0 --p 11]",
      "tests/test_public_api.py::test_each_guard_refuses_with_its_class"
      "[generators-10-3-mod-15]"],
     "a generator is refused as the user wrote it; checked after the "
     "reduction mod N, gens=7 at N = 7 is named as the residue 0"),
    ("delta-budget-dropped", "eta.py",
     "        return tau(ell, self.precision)\n",
     "        return tau(ell)\n",
     ["tests/test_cli.py::test_bad_input_is_a_typed_error"
      "[KIDA_PRECISION=1122 hv --form delta --p 11 --ell 1123 --ext "
      "cyclotomic:1123:degree=11]",
      "tests/test_cli.py::test_bad_input_is_a_typed_error"
      "[KIDA_PRECISION=1122 transition --form delta --p 11 --base Q --ext "
      "cyclotomic:1123:degree=11 --lambda 1 --mu 0]",
      "tests/test_transition.py::TestTransitionExamples::"
      "test_1123_past_the_budget_of_delta",
      "tests/test_qexp.py::TestForms::test_delta_carries_its_budget"],
     "Delta carries its series budget, and its a_ell is tau within it: "
     "read at the default budget, tau(1123) passes KIDA_PRECISION=1122"),
]


def run_tests(src: Path,
              tests: list[str]) -> tuple[int | None, set[str], str]:
    """(exit code, failed test ids, output) of one pytest run of
    ``tests`` on the package under ``src``; the exit code is None when
    the run passed TIMEOUT and was ended."""
    # no bytecode: a mutant and its restored file may share a size and an
    # mtime second, and a cached .pyc would then serve the wrong one
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no",
         "-p", "no:cacheprovider", *DESELECT, *tests],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        # the run leads its own process group: end it and its children
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, set(), out + err
    # "FAILED <id> - <reason>"; a parametrized id may hold spaces
    failed = {line[len("FAILED "):].split(" - ", 1)[0]
              for line in out.splitlines() if line.startswith("FAILED ")}
    return proc.returncode, failed, out + err


def killed_by(test: str, failed: set[str]) -> bool:
    """Whether ``test`` or one of its parametrized cases failed."""
    return any(f == test or f.startswith((test + "[", test + "::"))
               for f in failed)


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        every = sorted({t for row in ROWS for t in row[4]})
        code, failed, out = run_tests(src, every)
        if code != 0:
            why = (f"timed out after {TIMEOUT} s" if code is None
                   else f"exit {code}")
            print(f"unmutated: the rows' tests do not pass ({why})\n{out}")
            return 1
        for name, file, old, new, tests, why in ROWS:
            path = src / "kida" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"STALE {name}: old text found {text.count(old)} "
                      f"times in {file}")
                bad += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                code, failed, out = run_tests(src, tests)
            finally:
                path.write_text(text, encoding="utf-8")
            alive = [t for t in tests if not killed_by(t, failed)]
            if code is None:
                print(f"killed {name}: timeout")
            elif code != 1 or alive:
                print(f"LIVES {name} (exit {code}; not failing: {alive}): "
                      f"{why}\n{out}")
                bad += 1
            else:
                print(f"killed {name}: {len(failed)} failed")
    print(f"{len(ROWS) - bad} of {len(ROWS)} rows killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
