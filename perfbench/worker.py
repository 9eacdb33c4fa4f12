"""One fresh interpreter doing kida work for the benchmark.

Reads a JSON job on stdin and prints one JSON line on stdout.  Modes:

- ``probe``: set up (imports plus the workload's warm-up) and report when
  ready; ``run.py`` times set-up from spawn to that moment.
- ``round``: set up, then run one round of transition-batch requests
  in-process, timing each.
- ``cli``: set up, then call ``kida.cli.main(argv)`` with stdout captured
  (the traced form of one cli-session command).

Every process takes a speed probe (``speed.py``) as soon as it is ready
and after every request, and reports each request's time raw and at
reference speed, and its median probe.

With ``"trace": true`` the imports are timed as spans and a ``Tracer`` is
installed before the warm-up, so set-up work shows in the layers too.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time

import speed
from tracer import Tracer


def setup(workload: str, tracer: Tracer | None):
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with span("cli.numpy_import"):
        importlib.import_module("numpy")
    with span("cli.import"):
        importlib.import_module("kida.cli")
    kida = importlib.import_module("kida")
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(kida.__file__).startswith(src + os.sep):
        raise SystemExit(f"kida imported from {kida.__file__}, not {src}")
    if tracer:
        tracer.install(kida)
    if workload == "transition-batch":
        # warm-up: the default-precision eta coefficients, built once
        kida.qexp.tau(1)
    return kida


class Requests:
    """Times requests and keeps their outputs, in order.  A speed probe
    follows every request, and each request's time is also given at
    reference speed, scaled by the probes before and after it."""

    def __init__(self, tracer: Tracer | None, probes: list[float]):
        self.tracer = tracer
        self.probes = probes
        self.results: list[dict] = []

    def run(self, kind: str, fn, **info) -> object:
        if self.tracer:
            self.tracer.request = len(self.results)
        t0 = time.perf_counter()
        try:
            value, out = fn()
            error = None
        except Exception as exc:          # recorded; the gate fails it
            value, out, error = None, None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if self.tracer:
            self.tracer.request = None
        self.probes.append(speed.probe())
        self.results.append(dict(info, kind=kind, out=out, error=error,
                                 raw=t1 - t0,
                                 lat=speed.scale(t1 - t0, *self.probes[-2:])))
        if error is not None:
            raise _PairAborted
        return value


class _PairAborted(Exception):
    pass


def run_transition_jobs(kida, jobs, reqs: Requests):
    splitting, transition = kida.splitting, kida.transition
    localfactor, cli = kida.localfactor, kida.cli

    def parse(spec):
        def fn():
            F = splitting.parse_field_spec(spec)
            return F, {"spec": spec, "conductor": F.conductor,
                       "degree": F.degree}
        return fn

    def transport(p, base_field, ext_field, pair, record):
        def fn():
            form = cli.parse_form_spec(pair["form"]) if pair["form"] else None
            local = {int(ell): localfactor.parse_local_type(spec, p)
                     for ell, spec in pair["local"].items()}
            rep = transition.transition(
                p=p, base_field=base_field, ext_field=ext_field, base=record,
                form=form, local_types=local)
            return rep, rep.as_mapping()
        return fn

    for j, job in enumerate(jobs):
        p = job["p"]
        try:
            Q = reqs.run("parse", parse("Q"), job=j)
        except _PairAborted:
            continue
        for k, pair in enumerate(job["pairs"]):
            tag = {"job": j, "pair": k}
            try:
                F = reqs.run("parse", parse(job["F"]), **tag)
                Fp = reqs.run("parse", parse(job["Fp"]), **tag)
                r1 = reqs.run("transition", transport(
                    p, Q, F, pair,
                    transition.InvariantRecord("algebraic", 0,
                                               pair["lambda"])),
                    step=1, **tag)
                r2 = reqs.run("transition", transport(
                    p, F, Fp, pair, r1.to_invariant_record()), step=2, **tag)
                reqs.run("compose", lambda: (None, transition.compose(
                    r1, r2).as_mapping()), **tag)
            except _PairAborted:
                continue


def run_cli(kida, argv, tracer: Tracer | None):
    if tracer:
        tracer.request = 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = kida.cli.main(argv)
        except SystemExit as exc:         # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return {"exit": code, "stdout": buf.getvalue()}


def main():
    job = json.load(sys.stdin)
    workload, mode = job["workload"], job["mode"]
    tracer = Tracer() if job.get("trace") else None
    kida = setup(workload, tracer)
    result = {"ready": time.monotonic()}
    reqs = Requests(tracer, [speed.probe()])
    if mode == "round":
        run_transition_jobs(kida, job["round"], reqs)
    elif mode == "cli":
        result.update(run_cli(kida, job["argv"], tracer))
    result["probe"] = statistics.median(reqs.probes)
    result["results"] = reqs.results
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
