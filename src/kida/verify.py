"""Deterministic property suites behind the ``verify`` CLI command.

Each suite returns a SuiteResult with a counterexample dump on failure;
all randomness comes from a seeded random.Random, so runs are
reproducible byte for byte.  The group-identity sweep keys each
character by its value logs on a subgroup's generators, packed into one
integer, built from one outer-sum list per generator with no Character
objects; it checks per subgroup the annihilator size, the class count
and trivial class = annihilator, then a subsample by reference and trace
oracle.  Each suite imports the modules it checks, so a run loads no
other.

The module keeps no cache across calls.  Per group, the sweep memoises
two dicts, dropped with the group: ``logs`` keys on a generator (its
``_value_logs`` laid out as one integer, and that times e, e^2, ...),
``packed`` on a tail of two or more generators (their packed keys); each
holds at most one entry per subgroup of the group.  The reference
subsample (``chargroup.check_group_identity``, ``multiplicity`` and
``multiplicity_trace``) reads ``Character.value_log``'s formula and
never ``_value_logs``, so it stays independent of the sweep's outer
sums; its caches are ``chargroup``'s.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from itertools import compress

from .errors import BoundExceeded, KidaError, Record, SpecParseError


class SuiteResult(Record):
    """Outcome of one suite; mutable while the suite runs, so unhashable."""

    __slots__ = ("name", "params", "checks", "failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, params: dict, checks: int = 0,
                 failures: list[str] | None = None):
        self.name = name
        self.params = params
        self.checks = checks
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str):
        if len(self.failures) < 25:
            self.failures.append(message)

    def as_mapping(self) -> dict[str, object]:
        out = {"suite": self.name, "checks": self.checks,
               "result": "pass" if self.passed else "FAIL"}
        for k in sorted(self.params):
            out[f"param.{k}"] = self.params[k]
        for i, f in enumerate(self.failures):
            out[f"counterexample.{i}"] = f
        return out


def _value_logs(d, e: int, g) -> list[int]:
    """Value logs at ``g`` of every character of Z/d_1 x ... x Z/d_r
    (exponent ``e``) in the lexicographic exponent order of
    ``chargroup.dual_group``: the outer sum of the progressions
    c * g_i * (e / d_i), 0 <= c < d_i, reduced mod e."""
    out = [0]
    for gi, di in zip(g, d):
        prog = [c * gi * (e // di) for c in range(di)]
        out = [x + y for x in out for y in prog]
    return [x % e for x in out]


def _packed_keys(gens, d, e: int, fmt: str, logs: dict,
                 packed: dict) -> int:
    """The keys on ``gens`` of all n characters, side by side in one int.

    A character's key is its value logs packed in base e, sum_j log_j
    e^(k-1-j) over the k generators, and fills one ``fmt`` item of an
    ``array``, in ``dual_group``'s order.  The keys of gens are then
    e^(k-1) times the logs at gens[0] plus the keys of gens[1:]: one
    addition for all n characters.  ``logs`` holds per generator its
    ``_value_logs`` so laid out, times e^0, e^1, ...; ``packed`` holds
    the keys of every tail of two or more generators, as the Hermite walk
    gives many subgroups one tail.  The packing needs every log in
    [0, e), as ``_value_logs`` gives them; a log too large for its item
    raises OverflowError.
    """
    k, g = len(gens), gens[0]
    scaled = logs.get(g)
    if scaled is None:
        scaled = logs[g] = [int.from_bytes(
            array(fmt, _value_logs(d, e, g)).tobytes(), sys.byteorder)]
    while len(scaled) < k:
        scaled.append(scaled[-1] * e)
    if k == 1:
        return scaled[0]
    tail = gens[1:]
    rest = packed.get(tail)
    if rest is None:
        rest = packed[tail] = _packed_keys(tail, d, e, fmt, logs, packed)
    return scaled[k - 1] + rest


def group_identity_suite(max_order: int = 200, reps: int = 100,
                         seed: int = 0) -> SuiteResult:
    """The multiplicity identity over every abelian group G of order <=
    max_order and every subgroup H, counted as ``reps`` checks each.

    A character's key is its tuple of value logs on the generators of H
    packed in base e (``_packed_keys``); each generator's logs over all
    characters are built once per group (``_value_logs``).  Per
    subgroup: annihilator size (|G|/|H| keys are 0), class count (|H|
    distinct keys) and trivial class = annihilator, which is
    keys[0] == 0 (keys[0] belongs to the first
    character in ``dual_group``'s order, the trivial one).  Then the
    identity holds for every representation, since lhs - rhs = |H| (its
    multiplicities summed over the annihilator - over the trivial
    class), and counts ``reps`` checks; no representation is drawn for
    them.  Per group, two random representations and subgroups, drawn
    from the seed, go to the reference ``chargroup.check_group_identity``
    and to the trace oracle (``multiplicity`` = ``multiplicity_trace``
    for the trivial character over H); each draw is one check.
    """
    from . import chargroup
    rng = random.Random(seed)
    res = SuiteResult("group-identity",
                      {"max_order": max_order, "reps": reps, "seed": seed})
    for G in chargroup.abelian_groups_upto(max_order):
        n, e, d = G.order, G.exponent, G.invariant_factors
        if G.rank == 0:
            res.checks += reps
            continue
        subs = chargroup.subgroups(G)
        # a packed key is below e^rank: the smallest item type that holds
        # it (8 bytes do for every group of order below 30,000)
        fmt = next(t for t in "BHIQ"
                   if e ** G.rank <= 256 ** array(t).itemsize)
        width = n * array(fmt).itemsize
        logs = {}       # generator -> its value logs, times e^0, e^1, ...
        packed = {}     # tail of generators -> its keys
        passed = 0
        for H in subs:
            h, gens = H.order, H.generators
            keys = array(fmt, (_packed_keys(gens, d, e, fmt, logs, packed)
                               if gens else 0).to_bytes(width, sys.byteorder))
            n_ann, n_classes = keys.count(0), len(set(keys))
            why = (f"annihilator size {n_ann} != {n}/{h}" if n_ann != n // h
                   else f"{n_classes} restriction classes != |H|={h}"
                   if n_classes != h
                   else "trivial-class != annihilator" if keys[0]
                   else None)
            if why:
                res.fail(f"{why} for G={G.invariant_factors} H={gens}")
                continue
            passed += 1
        res.checks += reps * passed
        # reference implementation and trace oracle on a subsample
        one = chargroup.trivial_character(G)
        for _ in range(2):
            W = chargroup.random_rep(G, rng, 12)
            H = subs[rng.randrange(len(subs))]
            try:
                ok, l, rr = chargroup.check_group_identity(W, H)
                m = chargroup.multiplicity(W, one, H)
                mt = chargroup.multiplicity_trace(W, one, H)
            except KidaError as exc:
                res.fail(f"reference check fails: G={G.invariant_factors} "
                         f"H={H.generators}: {exc}")
                continue
            res.checks += 1
            if not ok:
                res.fail(f"reference check fails: G={G.invariant_factors} "
                         f"H={H.generators} lhs={l} rhs={rr}")
            elif m != mt:
                res.fail(f"trace oracle fails: G={G.invariant_factors} "
                         f"H={H.generators} <W,1>_H={m} trace={mt}")
    return res


def _tabulated_types(p: int):
    from . import localfactor
    types = [localfactor.Supercuspidal()]
    for a in range(p):
        for c in range(p):
            types.append(localfactor.UnramifiedPS(a, c, p))
    chars = [localfactor.LocalCharData(False, True),
             localfactor.LocalCharData(False, False)]
    for triv in (True, False):
        for order in (p, p * p):
            chars.append(localfactor.LocalCharData(
                True, triv, True, order_on_inertia=order))
    for phi in chars[2:]:
        types.append(localfactor.Special(phi))
    types.append(localfactor.Special(chars[0]))
    types.append(localfactor.Special(chars[1]))
    for i, c1 in enumerate(chars):
        for c2 in chars[i:]:
            types.append(localfactor.RamifiedPS(c1, c2))
    return types


def tower_additivity_suite(max_size: int = 27, seed: int = 0,
                           generic_reps: int = 20) -> SuiteResult:
    """Tower additivity m(L''/L) = [L'':L'] m(L'/L) + m(L''/L') for all
    tabulated local types and for generic data from random character
    multisets over cyclic p-groups of order <= max_size, cross-checked
    against brute-force multiplicity sums."""
    from . import chargroup, localfactor
    rng = random.Random(seed)
    res = SuiteResult("tower-additivity",
                      {"max_size": max_size, "seed": seed,
                       "generic_reps": generic_reps})
    for p in (3, 5, 11):
        degrees = [p ** b for b in range(4) if p ** b <= max(max_size, p * p)]
        chains = [(a, b) for a in degrees for b in degrees if b % a == 0]
        for V in _tabulated_types(p):
            for inner, outer in chains:
                try:
                    ok, lhs, rhs = localfactor.check_tower_additivity(
                        V, inner, outer)
                except KidaError as exc:
                    res.fail(f"p={p} {V!r} chain {inner}|{outer}: {exc}")
                    continue
                res.checks += 1
                if not ok:
                    res.fail(f"p={p} {localfactor.describe_local_type(V)} "
                             f"chain {inner}|{outer}: {lhs} != {rhs}")
    # generic data over cyclic p-groups of order <= max_size
    for p in (3, 5, 7, 11, 13):
        for b in range(1, 4):
            t = p ** b
            if t > max_size:
                break
            G = chargroup.cyclic(t)
            dual = chargroup.dual_group(G)
            for _ in range(generic_reps):
                W = chargroup.random_rep(G, rng, 15)
                mvals = tuple(W.entries.get(chi, 0) for chi in dual)
                V = localfactor.Generic(t, mvals)
                m1 = mvals[0]
                brute = sum(m1 - v for v in mvals)
                res.checks += 1
                if localfactor.m_extension(V, t) != brute:
                    res.fail(f"generic m_extension != brute force over C_{t}")
                    continue
                for inner in (p ** j for j in range(b + 1)):
                    ok, lhs, rhs = localfactor.check_tower_additivity(
                        V, inner, t)
                    res.checks += 1
                    if not ok:
                        res.fail(f"generic C_{t} chain {inner}|{t}: "
                                 f"{lhs} != {rhs} values={mvals}")
                        continue
                    # independent oracle through the group identity
                    H = (chargroup.Subgroup(G, [(inner % t,)])
                         if inner < t else chargroup.Subgroup(G, []))
                    ok2, l2, r2 = chargroup.check_group_identity(W, H)
                    res.checks += 1
                    if not (ok2 and l2 == lhs):
                        res.fail(f"generic C_{t} chain {inner}|{t}: "
                                 f"chargroup oracle {l2} != {lhs}")
    return res


def path_agreement_suite(seed: int = 0) -> SuiteResult:
    """The h-table (``m_extension``) equals the twist-by-twist sum
    (``twist_sum``) over the full cartesian product of local types,
    residue cases, and e in {p, p^2} for p in {3, 5, 11}."""
    from . import localfactor
    res = SuiteResult("path-agreement", {"seed": seed})
    for p in (3, 5, 11):
        for V in _tabulated_types(p):
            for e in (p, p * p):
                res.checks += 1
                h = localfactor.m_extension(V, e)
                m = localfactor.twist_sum(V, e)
                if h != m:
                    res.fail(f"p={p} e={e} "
                             f"{localfactor.describe_local_type(V)}: "
                             f"h={h} m={m}")
    return res


# (a1, a2, a3, a4, a6) of the curves the hasse suite counts on
TEST_CURVES = (
    (0, -1, 1, -10, -20),   # conductor 11
    (0, 0, 1, -1, 0),       # conductor 37
    (0, 0, 0, -1, 0),       # y^2 = x^3 - x
    (1, 0, 0, 0, -1),       # small mixed model
)


def _count_points_naive(E, ell: int) -> int:
    """#E(F_ell) by enumeration: the point at infinity and every (x, y)
    with y^2 + b y = x^3 + a2 x^2 + a4 x + a6, b = a1 x + a3, read from
    a table of how often y^2 + b y takes each value, one per distinct b."""
    tables: dict[int, list[int]] = {}
    cnt = 1
    for x in range(ell):
        b = (E.a1 * x + E.a3) % ell
        hits = tables.get(b)
        if hits is None:
            hits = tables[b] = [0] * ell
            for y in range(ell):
                hits[(y * y + b * y) % ell] += 1
        cnt += hits[(x ** 3 + E.a2 * x * x + E.a4 * x + E.a6) % ell]
    return cnt


def _primes_upto(bound: int) -> list[int]:
    """The primes up to ``bound``, by the sieve of Eratosthenes."""
    flags = bytearray([0, 0]) + bytearray([1]) * (bound - 1)
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
    return list(compress(range(bound + 1), flags))


def hasse_suite(bound: int = 100, seed: int = 0) -> SuiteResult:
    """Hasse bound and an independent recount for the test curves at
    every prime of good reduction up to ``bound``: by enumeration up to
    150, by the Legendre sum at every prime in (229, 2000] (baby-step
    giant-step takes over from it past 229) and at up to 32 primes in
    (2000, bound] drawn from ``seed``."""
    from . import qexp
    rng = random.Random(seed)
    res = SuiteResult("hasse", {"bound": bound, "seed": seed})
    primes = _primes_upto(bound)
    above = [ell for ell in primes if ell > 2000]
    sample = set(rng.sample(above, min(32, len(above))))
    for coefficients in TEST_CURVES:
        E = qexp.EllipticCurve(*coefficients)
        disc = E.discriminant()
        for ell in primes:
            if disc % ell == 0:
                continue
            n_lib = E.count_points(ell)
            a = ell + 1 - n_lib
            res.checks += 1
            if a * a > 4 * ell:
                res.fail(f"Hasse bound fails: {E!r} ell={ell} a={a}")
                continue
            if ell <= 150:
                recount = _count_points_naive
            elif qexp._MESTRE_BOUND < ell <= 2000 or ell in sample:
                recount = qexp._count_legendre
            else:
                continue
            n_recount = recount(E, ell)
            res.checks += 1
            if n_recount != n_lib:
                res.fail(f"recount mismatch: {E!r} ell={ell} "
                         f"{n_recount} != {n_lib}")
    return res


# name -> (name of the suite function, keyword that ``--size`` sets or
# None, largest size accepted); the function is looked up by name when the
# suite runs, so a replaced module attribute (a wrapper, a test double) is
# the one called.  The maxima keep a run within about 10 s: group-identity
# 200 is the acceptance sweep and takes about 1.7 s, 6166476 checks,
# tower-additivity checks nothing new past 13^3 = 2197 (about 1 s, 4490
# checks), and hasse at 8000 takes about 1.5 s, 5300 checks (CPython 3.11
# on a 2-vCPU x86-64 VM).
SUITES = {
    "group-identity": ("group_identity_suite", "max_order", 200),
    "tower-additivity": ("tower_additivity_suite", "max_size", 2197),
    "path-agreement": ("path_agreement_suite", None, None),
    "hasse": ("hasse_suite", "bound", 8000),
}


def run_suite(name: str, seed: int = 0, size: int | None = None) -> SuiteResult:
    """Run a suite; ``size`` (None: the suite's default) is checked
    against the suite's range before any work, and ignored by a suite
    without one."""
    if name not in SUITES:
        raise KidaError(f"unknown suite {name!r}; "
                        f"choose from {sorted(SUITES)}")
    suite, size_kw, largest = SUITES[name]
    sized = {}
    if size_kw and size is not None:
        if size < 1:
            raise SpecParseError(f"size must be >= 1, got {size}")
        if size > largest:
            raise BoundExceeded(f"size {size} beyond bound {largest} "
                                f"for suite {name}")
        sized[size_kw] = size
    return globals()[suite](seed=seed, **sized)
