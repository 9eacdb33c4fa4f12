"""kida benchmark: the cli-session and transition-batch workloads.

Usage (from the root of a kida checkout):

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 60 \
        --trace 0

``--workload all`` runs the workloads one after another.  With
``--trace 0`` the run executes the seed's rounds a fixed number of passes,
one client in a closed loop, and prints the end-to-end metrics; with
``--trace 1`` it runs the same rounds untraced and traced, alternately,
and prints the per-layer metrics and the tracing overhead.  ``--seconds``
is a safety stop: no new pass starts after it.  Every output passes the
correctness gate; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Only the standard library is used here.  kida runs in child processes:
``python -m kida.cli`` per cli-session request, and ``worker.py`` per
execution of a transition-batch round (a fresh library session, so every
repeat does the same work from cold caches).  Times are scaled to a
reference machine speed (``speed.py``).  DESIGN.md explains the choices.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("p50_ms", "ms"), ("tail_ms", "ms"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))
PCT_GRID = (50, 60, 70, 75, 80, 90, 95, 99, 99.9)
# Rounds per seed: the content of a run, fixed so that the number of
# distinct requests (and with it the tail percentile) and the traced run's
# counts do not depend on the machine's speed.
ROUNDS = {"cli-session": 2, "transition-batch": 4}
# Executions of every round in a timing run, sized so that a run takes
# about 45 s on the reference machine.
PASSES = {"cli-session": 2, "transition-batch": 5}
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 120


# -- statistics -----------------------------------------------------------------

def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    k = max(math.ceil(pct / 100 * len(ordered)) - 1, 0)
    return ordered[k]


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank position of ``pct``."""
    return n - max(math.ceil(pct / 100 * n), 1)


def tail_percentile(n: int) -> float:
    """The highest grid percentile with at least 10 samples beyond it; 50
    when the sample is too small for any."""
    ok = [p for p in PCT_GRID if beyond(n, p) >= 10]
    return max(ok) if ok else 50


# -- child processes --------------------------------------------------------------

class Child:
    def __init__(self, code, stdout, stderr, start, end):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.start, self.end = start, end


def child_env(root: str, seed: int) -> dict:
    """kida from ``root``'s ``src``, and a hash seed taken from ``seed``:
    with random hash seeds, set and dict orders (and with them allocation
    and garbage-collection timing) differ between the executions of a
    round, which moved sub-millisecond requests by up to 30%."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KIDA_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    return env


def spawn(argv, env, root, stdin: bytes | None = None) -> Child:
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=root, env=env,
                            stdin=subprocess.PIPE if stdin is not None
                            else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(stdin, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += b"\nkilled after timeout"
    return Child(proc.returncode, out.decode(), err.decode(), start,
                 time.monotonic())


def worker(job: dict, env, root) -> dict:
    """Run ``worker.py`` on ``job``.  Adds ``setup`` (spawn to ready, at
    reference speed: a probe here before the spawn, the worker's median
    probe after) and ``elapsed`` (spawn to exit, raw seconds)."""
    before = speed.probe()
    child = spawn([sys.executable, os.path.join(HERE, "worker.py")], env,
                  root, json.dumps(job).encode())
    lines = child.stdout.strip().splitlines()
    if child.code != 0 or not lines:
        raise RuntimeError(f"worker failed ({child.code}): "
                           f"{child.stderr.strip()[-2000:]}")
    res = json.loads(lines[-1])
    res["setup_raw"] = res["ready"] - child.start
    res["setup"] = speed.scale(res["setup_raw"], before, res["probe"])
    res["elapsed"] = child.end - child.start
    return res


# -- one run ---------------------------------------------------------------------------

class Round:
    """Timings (at reference speed, and raw) and outputs of one round."""

    def __init__(self):
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.outputs: list[str] = []
        self.conductors: list[list[int]] = []

    def add(self, latency: float, raw: float, output: str, conductors):
        self.latencies.append(latency)
        self.raw.append(raw)
        self.outputs.append(output)
        self.conductors.append(list(conductors))


class Run:
    """State of one workload run: rounds, set-up samples, gate findings."""

    def __init__(self, workload: str, seed: int, root: str):
        self.workload, self.seed, self.root = workload, seed, root
        self.env = child_env(root, seed)
        self.gen = workloads.generator(workload, seed)
        self.tau = workloads.tau_table()
        self.rounds: list[Round] = []
        self.setups: list[float] = []
        self.setups_raw: list[float] = []
        self.rss_kb: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, where: str, problems: list[str]):
        """Count one failed request (if ``problems``) and keep its reasons."""
        if problems:
            self.failed += 1
            self.problems += [f"{where}: {p}" for p in problems[:3]]

    def add_setup(self, res: dict):
        self.setups.append(res["setup"])
        self.setups_raw.append(res["setup_raw"])

    def probe(self):
        try:
            res = worker({"workload": self.workload, "mode": "probe"},
                         self.env, self.root)
        except RuntimeError as exc:
            self.attempted += 1
            self.fail("set-up probe", [str(exc)])
            return
        self.add_setup(res)

    # cli-session ------------------------------------------------------------

    def cli_command(self, req, trace: bool | None):
        """One command at reference speed: ``python -m kida.cli`` when
        ``trace`` is None, else ``cli.main`` in a ``worker.py`` with or
        without the tracer.  Returns the child, its scaled and raw time,
        and the worker's report (None for the plain CLI)."""
        before = speed.probe()
        if trace is None:
            child, res = spawn([sys.executable, "-m", "kida.cli"] + req.argv,
                               self.env, self.root), None
            raw = child.end - child.start
        else:
            res = worker({"workload": self.workload, "mode": "cli",
                          "argv": req.argv, "trace": trace}, self.env,
                         self.root)
            child, raw = Child(res["exit"], res["stdout"], "", 0, 0), \
                res["elapsed"]
        return child, speed.scale(raw, before, speed.probe()), raw, res

    def cli_round(self, i: int, trace: bool | None = None,
                  probes: bool = False, processes=None) -> Round:
        """One round of CLI commands.  With ``probes``, a set-up probe runs
        after every seventh command, so set-up samples spread over the run."""
        rnd = Round()
        for k, req in enumerate(self.gen.round(i)):
            try:
                child, lat, raw, res = self.cli_command(req, trace)
            except RuntimeError as exc:
                self.attempted += 1
                self.fail(f"round {i} {req.kind}", [str(exc)])
                continue
            if trace and processes is not None:
                processes.append(res)
            self.attempted += 1
            self.fail(f"round {i} {req.kind} {' '.join(req.argv)}",
                      gate.check_cli(req, child.code, child.stdout, self.tau))
            rnd.add(lat, raw, f"{child.code}\n{child.stdout}", req.conductors)
            if probes and k % 7 == 6:
                self.probe()
        self.rounds.append(rnd)
        return rnd

    # in-process rounds ----------------------------------------------------------

    def worker_round(self, i: int, trace: bool = False) -> dict | None:
        payload = self.gen.round(i)
        expected = sum(1 + 5 * len(job["pairs"]) for job in payload)
        rnd = Round()
        self.rounds.append(rnd)
        self.attempted += expected
        try:
            res = worker({"workload": self.workload, "mode": "round",
                          "round": payload, "trace": trace}, self.env,
                         self.root)
        except RuntimeError as exc:
            self.failed += expected
            self.problems.append(f"round {i}: {exc}")
            return None
        self.add_setup(res)
        self.rss_kb.append(res["maxrss_kb"])
        results = res["results"]
        if len(results) < expected:
            self.failed += expected - len(results)
            self.problems.append(f"round {i}: {expected - len(results)} "
                                 f"requests not attempted")
        bad: dict[int, list[str]] = {}
        for j, job in enumerate(payload):
            mine = [k for k, r in enumerate(results) if r.get("job") == j]
            for k, problem in gate.check_job(
                    job, [results[k] for k in mine], self.tau):
                bad.setdefault(mine[k], []).append(problem)
        for k, problems in sorted(bad.items()):
            self.fail(f"round {i} request {k}", problems)
        for r in results:
            rnd.add(r["lat"], r["raw"],
                    json.dumps([r["out"], r["error"]], sort_keys=True),
                    _conductor(r, payload))
        return res

    def round(self, i: int, trace: bool | None = None, probes: bool = False,
              processes=None) -> Round:
        """One execution of round ``i``, in the workload's own way."""
        if self.workload == "cli-session":
            return self.cli_round(i, trace, probes, processes)
        res = self.worker_round(i, bool(trace))
        if trace and res is not None and processes is not None:
            processes.append(res)
        return self.rounds[-1]

    # reports ---------------------------------------------------------------------------

    def digest(self, rounds: list[Round]) -> str:
        """sha256 of every output of ``rounds``, in order."""
        h = hashlib.sha256()
        for rnd in rounds:
            for out in rnd.outputs:
                h.update(out.encode())
                h.update(b"\0")
        return h.hexdigest()

    def properties(self, rounds: list[Round]) -> dict:
        """Workload properties later cache or dlog claims can cite, over
        one execution of each round.  A request reuses a conductor when an
        earlier request of the same process (round) had it; cli-session
        runs one process per request."""
        reused = with_cond = composite = 0
        ells: set[int] = set()
        largest = 0
        for rnd in rounds:
            seen: set[int] = set()
            for conds in rnd.conductors:
                if not conds:
                    continue
                with_cond += 1
                if all(c in seen for c in conds) and \
                        self.workload != "cli-session":
                    reused += 1
                if any(len(workloads.factor(c)) > 1 for c in conds):
                    composite += 1
                for c in conds:
                    seen.add(c)
                    largest = max(largest, workloads.unit_group_order(c))
                    ells.update(q for q, _ in workloads.factor(c))
        decades: dict[str, int] = {}
        for ell in sorted(ells):
            key = f"1e{len(str(ell)) - 1}"
            decades[key] = decades.get(key, 0) + 1
        return {
            "requests_with_conductor": with_cond,
            "reuse_share": reused / with_cond if with_cond else 0.0,
            "composite_share": composite / with_cond if with_cond else 0.0,
            "ell_by_decade": decades,
            "largest_unit_group_order": largest,
        }


def _conductor(r: dict, payload: list[dict]) -> list[int]:
    """Conductors a transition-batch request works with (Q has none)."""
    job = payload[r["job"]]
    if r["kind"] == "parse":
        return [] if r["out"] is None or r["out"]["conductor"] == 1 \
            else [r["out"]["conductor"]]
    f_cond, fp_cond = job["conductors"]
    return list(f_cond) if r.get("step") == 1 else list(fp_cond)


_ALL_CPUS = os.sched_getaffinity(0)


def pinned(k: int) -> None:
    """Run on the k-th allowed CPU (children inherit the affinity): the
    CPUs slow down independently of each other, so passes alternate."""
    cpus = sorted(_ALL_CPUS)
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})


# -- timing run ---------------------------------------------------------------------

def timing_run(run: Run, seconds: float) -> dict:
    """The seed's ROUNDS rounds, executed round-robin PASSES times, each
    pass on the next CPU; no new pass starts once ``seconds`` have gone
    by.  Each request's time is the median over its executions of its
    time at reference speed.  Every repeat must print exactly what the
    first execution printed."""
    cli = run.workload == "cli-session"
    n_rounds = ROUNDS[run.workload]
    start = time.monotonic()
    passes = 0
    try:
        while passes < PASSES[run.workload] and \
                (passes == 0 or time.monotonic() - start < seconds):
            pinned(passes)
            for i in range(n_rounds):
                run.round(i, probes=cli)
            passes += 1
    finally:
        os.sched_setaffinity(0, _ALL_CPUS)
    for _ in range(SETUP_SAMPLES - len(run.setups)):
        run.probe()
    scaled, raw = [], []     # per request: the median over its executions
    for i in range(n_rounds):
        execs = run.rounds[i::n_rounds]
        for rnd in execs[1:]:
            if rnd.outputs != execs[0].outputs:
                run.fail(f"round {i}", ["output differs on repeat"])
        scaled += [statistics.median(x)
                   for x in zip(*(e.latencies for e in execs))]
        raw += [statistics.median(x) for x in zip(*(e.raw for e in execs))]
    # the largest process doing the work: RUSAGE_CHILDREN keeps the
    # maximum over the CLI children; a worker reports its own peak
    if cli:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = max(run.rss_kb, default=0)
    n = len(scaled)
    pct = tail_percentile(n)
    if not (n and run.setups):          # nothing ran: the run has failed
        scaled, raw, n = [0.0], [0.0], 1
        run.setups, run.setups_raw = [0.0], [0.0]
    metrics = {
        "setup_s": statistics.median(run.setups),
        "p50_ms": nearest_rank(scaled, 50) * 1000,
        "tail_ms": nearest_rank(scaled, pct) * 1000,
        # a closed loop: requests run back to back
        "ops_per_s": n / sum(scaled) if sum(scaled) else 0.0,
        "peak_rss_mb": peak_kb / 1024,
    }
    info = {"rounds": n_rounds, "passes": passes,
            "executions": len(run.rounds), "samples": n,
            "tail_percentile": pct, "samples_beyond_tail": beyond(n, pct),
            "setup_samples": len(run.setups),
            "raw_setup_s": statistics.median(run.setups_raw),
            "raw_p50_ms": nearest_rank(raw, 50) * 1000,
            "raw_tail_ms": nearest_rank(raw, pct) * 1000,
            "raw_ops_per_s": n / sum(raw) if sum(raw) else 0.0,
            "elapsed_s": time.monotonic() - start,
            "fail_ratio": run.failed / max(run.attempted, 1)}
    return {"metrics": {k: (metrics[k], u) for k, u in END_TO_END},
            "info": info, "content": run.rounds[:n_rounds]}


# -- traced run -------------------------------------------------------------------------

def traced_run(run: Run, out_dir: str) -> dict:
    """The seed's rounds through ``worker.py`` untraced and traced, twice
    each, alternating, the two repeats on different CPUs.  Spans come from
    the first traced repeat, so counts repeat exactly for a seed; output
    must be byte-identical with tracing on and off.  The overhead ratio is
    traced over untraced time at reference speed, each request taking its
    best of two: whole commands for cli-session (set-up included), the
    requests for transition-batch."""
    processes: list[dict] = []
    plain_time = traced_time = 0.0
    content = []
    try:
        for i in range(ROUNDS[run.workload]):
            plain, traced = [], []
            for rep in range(2):
                pinned(rep)
                plain.append(run.round(i, trace=False))
                traced.append(run.round(
                    i, trace=True, processes=processes if rep == 0 else None))
            for rnd in plain + traced:
                if rnd.outputs != plain[0].outputs:
                    run.fail(f"round {i}", ["stdout differs with tracing on"
                                            " or on repeat"])
            plain_time += sum(map(min, zip(*(r.latencies for r in plain))))
            traced_time += sum(map(min, zip(*(r.latencies for r in traced))))
            content.append(plain[0])
    finally:
        os.sched_setaffinity(0, _ALL_CPUS)
    spans: list = []
    counters: dict[str, float] = {}
    for proc in processes:
        offset = len(spans)
        for sid, parent, name, start, end, req in proc["spans"]:
            spans.append([sid + offset,
                          None if parent is None else parent + offset,
                          name, start, end, req])
        for key, value in proc["counters"].items():
            counters[key] = counters.get(key, 0) + value
    values = tracer.layer_metrics(spans, counters)
    values["trace.overhead_ratio"] = traced_time / plain_time \
        if plain_time else 0.0
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{run.workload}-seed{run.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": run.workload, "seed": run.seed,
                   "span_fields": ["id", "parent", "name", "start", "end",
                                   "request"],
                   "spans": spans, "counters": counters}, fh)
    info = {"rounds": len(content),
            "trace_file": os.path.relpath(path, run.root)}
    return {"metrics": {k: (values[k], u) for k, u in tracer.PER_LAYER},
            "info": info, "content": content}


# -- entry -------------------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: bool,
            root: str) -> dict:
    run = Run(workload, seed, root)
    if trace:
        report = traced_run(run, os.path.join(root, ".perfbench-out"))
    else:
        report = timing_run(run, seconds)
    report["info"]["digest"] = run.digest(report["content"])
    for name, (value, unit) in report["metrics"].items():
        print(f"{workload} {name} = {value!r} {unit}")
    for key, value in report["info"].items():
        print(f"{workload} info.{key} = {value}")
    for key, value in run.properties(report["content"]).items():
        print(f"{workload} property.{key} = {value}")
    for problem in run.problems[:20]:
        print(f"{workload} FAIL {problem}")
    return {"correct": run.failed == 0 and not run.problems,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in report["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kida", "__init__.py")):
        print("error: run from the root of a kida checkout (no src/kida)",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace), root)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for name in workloads.WORKLOADS:
            # each workload in its own process, so child-RSS figures and
            # caches do not carry over
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                cwd=root, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode != 0 or not lines:
                return 1
            part = json.loads(lines[-1])
            result["correct"] &= part["correct"]
            result["attempted"] += part["attempted"]
            result["failed"] += part["failed"]
            for key, value in part["metrics"].items():
                result["metrics"][f"{name}.{key}"] = value
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
