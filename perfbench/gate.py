"""Correctness gate: every output the benchmark times is checked here.

Each check returns a list of problems (empty when the output is right).
Answers come from the README, from the oracles in ``workloads`` (which do
not use kida), and from identities every transition report must satisfy:

    lambda.out == degree * lambda.in + sum of local contributions,
    contribution == places * m  and  h == m at each place.
"""

from __future__ import annotations

import workloads


def parse_document(text: str) -> dict[str, str]:
    """kida's ``key = value`` output as a dict of strings."""
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key] = value
    return out


def _int(mapping, key):
    return int(mapping[key])


def check_transition(m: dict) -> list[str]:
    """The transition identity on a report mapping (CLI or in-process)."""
    problems = []
    try:
        contributions = 0
        ells = {k.split(".")[1] for k in m if k.startswith("local.")}
        for ell in sorted(ells):
            k = f"local.{ell}"
            places, mval = _int(m, f"{k}.places"), _int(m, f"{k}.m")
            contrib = _int(m, f"{k}.contribution")
            if contrib != places * mval:
                problems.append(f"{k}: contribution {contrib} != "
                                f"{places} * {mval}")
            if f"{k}.h" in m and _int(m, f"{k}.h") != mval:
                problems.append(f"{k}: h {m[k + '.h']} != m {mval}")
            contributions += contrib
        want = _int(m, "degree") * _int(m, "lambda.in") + contributions
        if _int(m, "lambda.out") != want:
            problems.append(f"lambda.out {m['lambda.out']} != {want}")
        if _int(m, "mu.out") != 0:
            problems.append("mu.out != 0")
    except (KeyError, ValueError) as exc:
        problems.append(f"malformed transition report: {exc!r}")
    return problems


def check_delta_type(m: dict, ell: int, p: int, tau) -> list[str]:
    """The local type at ell of a delta report over Q is the Frobenius
    data (tau(ell) mod p, ell^11 mod p), from the independent oracle."""
    want = f"ups:a={tau[ell - 1] % p},c={pow(ell, 11, p)}"
    got = m.get(f"local.{ell}.type")
    return [] if got == want else [f"local.{ell}.type {got} != {want}"]


def check_suite(m: dict) -> list[str]:
    if m.get("result") != "pass":
        return [f"suite {m.get('suite')} result {m.get('result')}"]
    if int(m.get("checks", 0)) < 1:
        return [f"suite {m.get('suite')} ran no checks"]
    return []


def check_cli(req: workloads.CliRequest, code: int, stdout: str,
              tau) -> list[str]:
    """One CLI command against its expectation."""
    if code != req.exit:
        return [f"exit {code} != {req.exit}"]
    if req.exit != 0:
        return [] if stdout == "" else ["error path wrote to stdout"]
    ex = req.expect
    doc = parse_document(stdout)
    problems = []
    if "stdout" in ex and stdout.strip() != ex["stdout"]:
        problems.append(f"stdout {stdout.strip()!r} != {ex['stdout']!r}")
    if "tau" in ex:
        want = _tau_value(tau, ex["tau"], ex.get("mod"))
        if stdout.strip() != str(want):
            problems.append(f"tau({ex['tau']}) {stdout.strip()} != {want}")
    for key, value in ex.get("fields", {}).items():
        if doc.get(key) != value:
            problems.append(f"{key} {doc.get(key)} != {value}")
    for key, value in ex.get("fields_int", {}).items():
        if doc.get(key) != str(value):
            problems.append(f"{key} {doc.get(key)} != {value}")
    if "hv_delta" in ex:
        ell, p = ex["hv_delta"]
        a, c = tau[ell - 1] % p, pow(ell, 11, p)
        want = {"a": str(a), "c": str(c), "e": str(p),
                "h": str(workloads.ups_h(a, c, p, p))}
        for key, value in want.items():
            if doc.get(key) != value:
                problems.append(f"hv {key} {doc.get(key)} != {value}")
    if "transition" in ex or req.kind == "readme" and "lambda.out" in doc:
        problems += check_transition(doc)
        for key, value in ex.get("transition", {}).items():
            if doc.get(key) != str(value):
                problems.append(f"{key} {doc.get(key)} != {value}")
    for ell, p in ex.get("delta_types", {}).items():
        problems += check_delta_type(doc, ell, p, tau)
    if ex.get("suite"):
        problems += check_suite(doc)
    return problems


def _tau_value(tau, n: int, mod: int | None) -> int:
    return tau[n - 1] % mod if mod else tau[n - 1]


def check_job(job: dict, results: list[dict], tau) -> list[tuple[int, str]]:
    """All requests of one transition-batch job (results in request order,
    tagged with their pair and step), as (index in ``results``, problem)."""
    p, found = job["p"], []
    want_degree = {job["F"]: p, job["Fp"]: p * p, "Q": 1}
    reports: dict[tuple, dict] = {}
    for i, r in enumerate(results):
        if r["error"] is not None:
            found.append((i, r["error"]))
            continue
        out, problems = r["out"], []
        if r["kind"] == "parse":
            if out["degree"] != want_degree[out["spec"]]:
                problems.append(f"degree {out['degree']} of {out['spec']}")
        elif r["kind"] == "transition":
            pair = job["pairs"][r["pair"]]
            problems += check_transition(out)
            reports[(r["pair"], r["step"])] = out
            if out["degree"] != p:
                problems.append(f"step degree {out['degree']}")
            for ell, spec in pair["local"].items():
                key = f"local.{ell}.type"
                if key in out and out[key] != spec:
                    problems.append(f"{key} {out[key]} != {spec}")
            if r["step"] == 1 and pair["form"] == "delta":
                for key in out:
                    if key.endswith(".type"):
                        problems += check_delta_type(
                            out, int(key.split(".")[1]), p, tau)
        else:
            problems += check_transition(out)
            r1 = reports.get((r["pair"], 1))
            r2 = reports.get((r["pair"], 2))
            if r1 is None or r2 is None:
                problems.append("compose without both steps")
            elif (out["lambda.out"] != r2["lambda.out"]
                  or out["lambda.in"] != r1["lambda.in"]
                  or out["degree"] != r1["degree"] * r2["degree"]):
                problems.append("composite disagrees with chain")
        where = f"job {job['kind']} pair {r.get('pair')} {r['kind']}"
        found += [(i, f"{where}: {x}") for x in problems]
    return found
