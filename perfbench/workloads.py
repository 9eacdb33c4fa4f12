"""Seeded request generators for the kida benchmark workloads.

Everything here is standard library only and never imports kida: the
generators build argv lists and spec strings, and the oracles below give
the correctness gate answers computed by routes independent of kida.

Each workload is a sequence of *rounds*.  A round has a fixed mix of
request kinds (the seed picks only the parameters), and parameters that
drive cost (prime size, tower depth, the 2-part of a composite conductor's
unit group) are stratified by round index, so the first few rounds of
every seed cover the same range of sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("cli-session", "transition-batch")

TAU_PRECISION = 2000          # kida's default series precision budget
EC_PRIME_BOUND = 100_000      # kida's point-counting bound
SMALL_P = (3, 5, 7, 11, 13)
# Prime-factor counts of the composite conductor, by round.
COMPOSITE_FACTORS = (2, 3, 4, 3)

# Nonsingular Weierstrass models (a1, a2, a3, a4, a6) with small levels.
CURVES = (
    (0, -1, 1, -10, -20),    # 11a1
    (0, 0, 1, -1, 0),        # 37a1
    (1, 0, 1, -1, 0),        # 14a? model, bad primes 2, 7
    (0, 1, 1, 0, 0),         # bad prime 43
    (1, -1, 1, -1, 0),       # bad primes 2, 7
)

# Local types that restrict to themselves along a totally ramified
# p-extension, so the same spec is valid at both steps of a chain.
CHAIN_LOCAL_TYPES = ("sc", "special:unram,triv", "special:unram,nontriv",
                     "ramps:unram,triv;unram,nontriv")

# README answers (command, field checked, expected value).
README = (
    (["tau", "--n", "23"], None, "18643272"),
    (["tau", "--n", "1123", "--mod", "11"], None, "2"),
    (["hv", "--form", "delta", "--p", "11", "--ell", "23",
      "--ext", "cyclotomic:23:degree=11"], "h", "0"),
    (["hv", "--form", "delta", "--p", "11", "--ell", "1123",
      "--ext", "cyclotomic:1123:degree=11"], "h", "20"),
    (["transition", "--form", "delta", "--p", "11", "--base", "Q",
      "--ext", "cyclotomic:23:degree=11", "--lambda", "1", "--mu", "0"],
     "lambda.out", "11"),
    (["transition", "--form", "delta", "--p", "11", "--base", "Q",
      "--ext", "cyclotomic:1123:degree=11", "--lambda", "1", "--mu", "0"],
     "lambda.out", "31"),
)


# -- number theory used by the generators and oracles ---------------------

def prime_sieve(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    return flags


def primes_in(flags: bytearray, lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1) if flags[n]]


def factor(n: int) -> list[tuple[int, int]]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        q += 1
    if n > 1:
        out.append((n, 1))
    return out


def vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def tau_table(bound: int = TAU_PRECISION) -> list[int]:
    """tau(1..bound) (index n-1), computed independently of kida.

    Delta = q * J^8 with J = sum (-1)^k (2k+1) q^(k(k+1)/2) (Jacobi), and
    the 8th power comes from J.C.P. Miller's power recurrence
    n g_n = sum_i (9i - n) J_i g_(n-i), which is exact over Z.
    """
    jac = []
    k = 0
    while k * (k + 1) // 2 < bound:
        jac.append((k * (k + 1) // 2, -(2 * k + 1) if k % 2 else 2 * k + 1))
        k += 1
    jac = jac[1:]                      # J_0 = 1 is the leading term
    g = [1] + [0] * (bound - 1)
    for n in range(1, bound):
        acc = 0
        for i, ji in jac:
            if i > n:
                break
            acc += (9 * i - n) * ji * g[n - i]
        g[n] = acc // n
    return g


def ups_h(a: int, c: int, e: int, p: int) -> int:
    """h-table value of an unramified principal series at index e."""
    a, c = a % p, c % p
    if a == 2 % p and c == 1 % p:
        return 2 * (e - 1)
    if a == (c + 1) % p:
        return e - 1
    return 0


def curve_spec(curve) -> str:
    return "ec:" + ",".join(f"a{i}={v}" for i, v in
                            zip((1, 2, 3, 4, 6), curve))


def curve_level(curve) -> int:
    """Product of the primes dividing the discriminant."""
    a1, a2, a3, a4, a6 = curve
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    level = 1
    for q, _ in factor(abs(disc)):
        level *= q
    return level


def unit_group_order(n: int) -> int:
    out = 1
    for q, e in factor(n):
        out *= (q - 1) * q ** (e - 1)
    return out


# -- request records ---------------------------------------------------------

@dataclass
class CliRequest:
    """One ``python -m kida.cli`` command and what the gate expects of it."""

    kind: str
    argv: list[str]
    exit: int = 0
    expect: dict = field(default_factory=dict)
    conductors: tuple[int, ...] = ()


WINDOW = 16


def _stratum(rng: random.Random, pool: list, index: int, strata: int):
    """Pick one of the items of a sorted pool nearest its
    ``(index mod strata + 1/2) / strata`` quantile (WINDOW of them, fewer
    in a small pool): the seed varies the input, the round index fixes its
    size, and so its cost."""
    n = len(pool)
    width = min(WINDOW, max(3, n // 4))
    mid = int((index % strata + 0.5) * n / strata)
    lo = max(0, min(mid - width // 2, n - width))
    return pool[rng.randrange(lo, min(lo + width, n))]


class _Pools:
    """Prime pools shared by the generators (built once per run)."""

    def __init__(self):
        flags = prime_sieve(1_000_000)
        small = primes_in(flags, 5, TAU_PRECISION)
        # (ell, p) with p | ell - 1: one-step fields cyclotomic:ell:degree=p
        self.step = [(ell, p) for ell in small for p in SMALL_P
                     if ell != p and (ell - 1) % p == 0]
        # (ell, p) with p^2 | ell - 1: two-step chains inside Q(zeta_ell)
        self.chain_small = [(ell, p) for ell in small for p in SMALL_P
                            if (ell - 1) % (p * p) == 0]
        # Larger primes: the tower over cyclotomic:ell:degree=p walks about
        # v_p(ell - 1) layers, each with its own O(ell) dlog table, so the
        # pools are ordered by (v_p(ell - 1), p, ell) to fix that cost per
        # round index too.
        self.chain_ec = _chain_pool(flags, 2001, EC_PRIME_BOUND)
        self.chain_big = _chain_pool(flags, 100_001, 1_000_000)
        self.composite = _composite_chains(flags)


def _chain_pool(flags, lo: int, hi: int) -> list[tuple[int, int]]:
    """(ell, p) with ell prime in [lo, hi], p in 3, 5, 7 and p^2 | ell - 1,
    ordered by (v_p(ell - 1), p, ell)."""
    pool = [(ell, p) for ell in primes_in(flags, lo, hi) for p in (3, 5, 7)
            if (ell - 1) % (p * p) == 0]
    return sorted(pool, key=lambda t: (vp(t[0] - 1, t[1]), t[1], t[0]))


def _composite_chains(flags) -> dict[int, list[tuple[int, int, int, int]]]:
    """(N, N1, ell2, p) for chains Q < cyclotomic:N1:degree=p <
    cyclotomic:N:degree=p^2 with N = N1 * ell2 squarefree, odd, prime to
    p and at most 15015, where exactly two prime factors of N are 1 mod p,
    each with p || ell - 1: then both index subgroups are unique, so the
    specs are valid, while resolving them enumerates (Z/N)^*.  Keyed by
    the number of prime factors of N, which sets the enumeration cost."""
    odd = primes_in(flags, 3, 2000)
    out = []

    def rec(start, prod, facs):
        if len(facs) >= 2:
            for p in SMALL_P:
                if prod % p == 0:
                    continue
                hits = [q for q in facs if (q - 1) % p == 0]
                if len(hits) == 2 and all(vp(q - 1, p) == 1 for q in hits):
                    ell2 = max(hits)
                    out.append((prod, prod // ell2, ell2, p))
        if len(facs) == 4:
            return
        for i in range(start, len(odd)):
            q = odd[i]
            if prod * q > 15015:
                break
            rec(i + 1, prod * q, facs + [q])

    rec(0, 1, [])
    by_k: dict[int, list] = {}
    # cheapest first: enumeration cost grows with the 2-part of (Z/N)^*
    for item in sorted(out, key=lambda t: (_two_part_log(t[0]), t[0])):
        by_k.setdefault(len(factor(item[0])), []).append(item)
    return by_k


def _two_part_log(n: int) -> int:
    """log2 of the order of the 2-part of (Z/n)^* for odd squarefree n."""
    return sum(vp(q - 1, 2) for q, _ in factor(n))


# -- cli-session ---------------------------------------------------------------

class CliSession:
    """Fresh ``python -m kida.cli`` per request, one client, closed loop.

    A round is 16 commands: one README command (rotating), then 8 more
    that build the eta coefficients (tau, hv and transition for delta)
    and 7 that do not (local-type hv, elliptic-curve transition, the
    three light suites, the group-identity sweep, one error path).
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.pools = _Pools()

    def round(self, i: int) -> list[CliRequest]:
        rng = random.Random(f"cli-session:{self.seed}:{i}")
        P = self.pools
        argv, field_, value = README[i % len(README)]
        readme = CliRequest("readme", list(argv),
                            expect={"stdout": value} if field_ is None
                            else {"fields": {field_: value}})
        reqs = [readme]
        for _ in range(2):
            reqs.append(self._tau(rng, with_mod=False))
            reqs.append(self._tau(rng, with_mod=True))
        for j in range(2):
            ell, p = _stratum(rng, P.step, 2 * i + j, 4)
            reqs.append(CliRequest(
                "hv-delta",
                ["hv", "--form", "delta", "--p", str(p), "--ell", str(ell),
                 "--ext", f"cyclotomic:{ell}:degree={p}"],
                expect={"hv_delta": (ell, p)}, conductors=(ell,)))
        for j in range(2):
            ell, p = _stratum(rng, P.step, 2 * i + j + 1, 4)
            lam = rng.randrange(0, 30)
            reqs.append(CliRequest(
                "transition-delta",
                ["transition", "--form", "delta", "--p", str(p), "--base",
                 "Q", "--ext", f"cyclotomic:{ell}:degree={p}",
                 "--lambda", str(lam), "--mu", "0"],
                expect={"transition": {"degree": p, "lambda.in": lam},
                        "delta_types": {ell: p}}, conductors=(ell,)))
        reqs.append(self._hv_local(rng))
        reqs.append(self._transition_ec(rng, i))
        reqs.append(CliRequest(
            "verify", ["verify", "--suite", "path-agreement",
                       "--seed", str(rng.randrange(1000))],
            expect={"suite": True}))
        # suite sizes follow the round index, so checks per round do not
        # depend on the seed
        reqs.append(CliRequest(
            "verify", ["verify", "--suite", "hasse", "--seed",
                       str(rng.randrange(1000)), "--size",
                       str(60 + 30 * (i % 4))],
            expect={"suite": True}))
        reqs.append(CliRequest(
            "verify", ["verify", "--suite", "tower-additivity", "--seed",
                       str(rng.randrange(1000)), "--size",
                       str((9, 25, 27, 25)[i % 4])],
            expect={"suite": True}))
        # every subgroup of every abelian group of order up to 64-70, the
        # rank-6 2-group C2^6 included
        reqs.append(CliRequest(
            "verify", ["verify", "--suite", "group-identity", "--seed",
                       str(rng.randrange(1000)), "--size",
                       str(64 + 2 * (i % 4))],
            expect={"suite": True}))
        reqs.append(self._error(rng, i))
        return reqs

    def _tau(self, rng, with_mod: bool) -> CliRequest:
        n = rng.randrange(1, TAU_PRECISION + 1)
        argv = ["tau", "--n", str(n)]
        expect = {"tau": n}
        if with_mod:
            m = rng.randrange(2, 1000)
            argv += ["--mod", str(m)]
            expect["mod"] = m
        return CliRequest("tau", argv, expect=expect)

    def _hv_local(self, rng) -> CliRequest:
        p = rng.choice(SMALL_P)
        e = p ** rng.randrange(1, 3)
        kind = rng.randrange(4)
        if kind == 0:
            a, c = rng.randrange(p), rng.randrange(p)
            spec, expect = f"ups:a={a},c={c}", {"h": ups_h(a, c, e, p)}
        elif kind == 1:
            spec, expect = "sc", {"h": 0}
        else:
            spec, expect = rng.choice(CHAIN_LOCAL_TYPES[1:]), {}
        expect["type"] = spec
        return CliRequest("hv-local", ["hv", "--form", spec, "--p", str(p),
                                       "--e", str(e)],
                          expect={"fields_int": expect})

    def _transition_ec(self, rng, i) -> CliRequest:
        curve = CURVES[rng.randrange(len(CURVES))]
        level = curve_level(curve)
        lam = rng.randrange(0, 30)
        # Every other round, ramify at a prime dividing the level, which
        # the generator must then cover with --local.
        bad = [(q, p) for q, _ in factor(level) for p in SMALL_P
               if q != p and (q - 1) % p == 0]
        if i % 2 and bad:
            ell, p = rng.choice(bad)
        else:
            pool = [(ell, p) for ell, p in self.pools.step
                    if level % ell and ell > 200]
            ell, p = _stratum(rng, pool, i, 4)
        argv = ["transition", "--form", curve_spec(curve), "--p", str(p),
                "--base", "Q", "--ext", f"cyclotomic:{ell}:degree={p}",
                "--lambda", str(lam), "--mu", "0"]
        if level % ell == 0:
            argv += ["--local", f"{ell}={rng.choice(CHAIN_LOCAL_TYPES)}"]
        return CliRequest("transition-ec", argv,
                          expect={"transition": {"degree": p,
                                                 "lambda.in": lam}},
                          conductors=(ell,))

    def _error(self, rng, i) -> CliRequest:
        """Commands whose documented exit code is 2, 3 or 4."""
        ell, p = rng.choice(self.pools.step)
        base = ["transition", "--form", "delta", "--p", str(p), "--base",
                "Q", "--ext", f"cyclotomic:{ell}:degree={p}",
                "--lambda", "1", "--mu", "0"]
        curve = CURVES[0]                               # level 11
        k = i % 8
        if k == 0:      # precision budget exceeded
            argv, code = ["tau", "--n", str(rng.randrange(2001, 5000))], 2
        elif k == 1:    # mu != 0
            argv, code = base[:-1] + ["1"], 2
        elif k == 2:    # Frobenius data at a prime dividing the level
            argv, code = ["hv", "--form", curve_spec(curve), "--p", "5",
                          "--ell", "11", "--e", "5"], 2
        elif k == 3:    # degree does not divide the unit-group order
            argv, code = base[:8] + [f"cyclotomic:{ell}:degree={ell}"] + \
                base[9:], 3
        elif k == 4:    # malformed form spec
            argv, code = ["transition", "--form", "ec:a1=x"] + base[3:], 3
        elif k == 5:    # base field not contained in the extension
            other, q = rng.choice([s for s in self.pools.step
                                   if s[1] == p and s[0] != ell])
            argv, code = base[:6] + [f"cyclotomic:{other}:degree={p}"] + \
                base[7:], 3
        elif k == 6:    # relative degree not a power of p
            argv, code = base[:8] + [f"cyclotomic:{ell}:degree={2 * p}"] + \
                base[9:], 3
        else:           # ramified prime divides the level, no --local
            argv, code = ["transition", "--form", curve_spec(curve), "--p",
                          "5", "--base", "Q", "--ext",
                          "cyclotomic:11:degree=5", "--lambda", "1",
                          "--mu", "0"], 4
        return CliRequest("error", argv, exit=code)


# -- transition-batch -------------------------------------------------------------

class TransitionBatch:
    """In-process parse_field_spec / transition / compose, grouped in jobs.

    A job fixes a chain Q < F < F' and transports three (form, lambda)
    pairs along it; every pair re-parses the chain's specs, so fields
    repeat within a job, and no conductor repeats across jobs of a run.
    A round is four jobs, one per conductor kind: a prime <= 2000 with
    delta, a prime <= 10^5 with an elliptic curve, a prime in 10^5..10^6
    with local types only, and a composite conductor <= 15015.
    """

    STRATA = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.pools = _Pools()
        self.used: set[int] = set()
        self.rounds: list[list[dict]] = []

    def _fresh(self, rng, pool, i, key=lambda t: t[0]):
        for _ in range(50):
            item = _stratum(rng, pool, i, self.STRATA)
            if key(item) not in self.used:
                break
        self.used.add(key(item))
        return item

    def round(self, i: int) -> list[dict]:
        # conductors are drawn without replacement across rounds, so rounds
        # are made in order and kept: round(i) is the same on every call
        while len(self.rounds) <= i:
            self.rounds.append(self._make(len(self.rounds)))
        return self.rounds[i]

    def _make(self, i: int) -> list[dict]:
        rng = random.Random(f"transition-batch:{self.seed}:{i}")
        P = self.pools
        jobs = []
        ell, p = self._fresh(rng, P.chain_small, i)
        jobs.append(_chain_job("delta", p, f"cyclotomic:{ell}:degree={p}",
                               f"cyclotomic:{ell}:degree={p * p}",
                               [self._pair(rng, "delta", {})
                                for _ in range(3)], (ell,), (ell,)))
        ell, p = self._fresh(rng, P.chain_ec, i)
        curves = [c for c in CURVES if curve_level(c) % ell]
        pairs = [self._pair(rng, curve_spec(rng.choice(curves)), {})
                 for _ in range(2)]
        pairs.append(self._pair(rng, None, {ell: None}))
        jobs.append(_chain_job("ec", p, f"cyclotomic:{ell}:degree={p}",
                               f"cyclotomic:{ell}:degree={p * p}", pairs,
                               (ell,), (ell,)))
        ell, p = self._fresh(rng, P.chain_big, i)
        jobs.append(_chain_job("local-big", p, f"cyclotomic:{ell}:degree={p}",
                               f"cyclotomic:{ell}:degree={p * p}",
                               [self._pair(rng, None, {ell: None})
                                for _ in range(3)], (ell,), (ell,)))
        k = COMPOSITE_FACTORS[i % len(COMPOSITE_FACTORS)]
        N, N1, ell2, p = self._fresh(rng, P.composite[k], i // 4)
        ell1 = next(q for q, _ in factor(N1) if (q - 1) % p == 0)
        pairs = [self._pair(rng, "delta", {}) for _ in range(2)]
        pairs.append(self._pair(rng, None, {ell1: None, ell2: None}))
        jobs.append(_chain_job("composite", p, f"cyclotomic:{N1}:degree={p}",
                               f"cyclotomic:{N}:degree={p * p}", pairs,
                               (N1,), (N,)))
        return jobs

    @staticmethod
    def _pair(rng, form, local) -> dict:
        local = {str(q): rng.choice(CHAIN_LOCAL_TYPES + ("ups:a=2,c=1",))
                 if v is None else v for q, v in local.items()}
        return {"form": form, "local": local, "lambda": rng.randrange(0, 30)}


def _chain_job(kind, p, spec_f, spec_fp, pairs, cond_f, cond_fp) -> dict:
    return {"kind": kind, "p": p, "F": spec_f, "Fp": spec_fp,
            "pairs": pairs, "conductors": [list(cond_f), list(cond_fp)]}


def generator(workload: str, seed: int):
    return {"cli-session": CliSession,
            "transition-batch": TransitionBatch}[workload](seed)
