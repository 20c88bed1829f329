"""Regenerate the reference answers in ``refs/``.

Usage, from the root of a checkout:

    python3 bench/make_refs.py [workload ...]

For every query any seed can draw:

* capacity and rate queries take the library's answer, which must agree
  with the independent bitset clique search in ``checker.py`` and, up to
  20 inputs, with the brute-force subset search; the frontier queries take
  the clique search's answer, and the library must still be running at
  three times the time limit;
* coding-theorem queries take the library's rows, whose capacity columns
  must agree with the brute-force search and whose rows must all match;
* CLI queries take the stdout and exit code of the README commands, which
  must exit 0 without a traceback; the refused inputs are expected to exit
  2 with empty stdout, whatever the library does today, and the library's
  current behaviour is recorded beside the expectation.

Run it only when the workloads change.  A reference that changes because
the library changed is a behaviour change, not a new reference.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import checker
import harness
import workloads


def _library_run(query, budget: float, runs: int = 3) -> tuple:
    """(status, value, seconds): the library's answer and its median time
    over ``runs`` runs in reference seconds, which is the cost the seeded
    draw bins instances by.  A failed run is not repeated."""
    call = workloads.prepare(query)
    costs = []
    for _ in range(runs):
        before = harness.calibrate()
        status, value, seconds = harness.call_with_limit(call, budget)
        if status != harness.OK:
            return status, value, seconds
        costs.append(seconds * harness.CALIBRATION_S
                     / ((before + harness.calibrate()) / 2))
    return status, value, statistics.median(costs)


def _capacity_ref(query, frontier: bool, limit: float) -> dict:
    spec = query.spec
    images, outputs = workloads.images_map(spec), workloads.n_outputs(spec)
    delta = Fraction(spec["delta"])
    start = time.perf_counter()
    count, witness = checker.clique_capacity(images, outputs, delta)
    engine_s = time.perf_counter() - start
    ours = ({"count": count, "witness": witness} if query.kind == "capacity"
            else {"count": count, "horizon": spec["horizon"]})
    budget = 3 * limit if frontier else 600
    status, value, seconds = _library_run(query, budget)
    entry = {"digest": query.digest, "answer": ours,
             "library_s": round(seconds, 4), "checker_s": round(engine_s, 4)}
    if frontier:
        if status != harness.TIMEOUT:
            raise SystemExit(f"{query.qid}: the library finished in "
                             f"{seconds:.2f} s, under three times the limit")
        entry["note"] = f"library still running at {budget:g} s"
        return entry
    if status != harness.OK:
        raise SystemExit(f"{query.qid}: library {status}: {value}")
    lib = workloads.answer_of(query, value)
    if lib != ours:
        raise SystemExit(f"{query.qid}: library {lib} != clique search {ours}")
    if query.kind == "capacity" and len(images) <= 20:
        brute = checker.brute_force_capacity(images, outputs, delta)
        if [count, witness] != list(brute):
            raise SystemExit(f"{query.qid}: brute force {brute} != {ours}")
        entry["brute_force"] = True
    if seconds * 5 > limit:
        print(f"warning: {query.qid} took {seconds:.2f} s, over a fifth of "
              f"the {limit:g} s limit", file=sys.stderr)
    return entry


def _coding_ref(query, limit: float) -> dict:
    status, value, seconds = _library_run(query, 600)
    if status != harness.OK:
        raise SystemExit(f"{query.qid}: library {status}: {value}")
    answer = workloads.answer_of(query, value)
    images = workloads.images_map(query.spec)
    for row in answer["rows"]:
        brute = checker.brute_force_capacity(images, query.spec["outputs"],
                                             Fraction(row[0]))
        if [row[1], row[2]] != list(brute) or not row[7]:
            raise SystemExit(f"{query.qid}: row {row} vs brute force {brute}")
    if seconds * 5 > limit:
        print(f"warning: {query.qid} took {seconds:.2f} s", file=sys.stderr)
    return {"digest": query.digest, "answer": answer,
            "library_s": round(seconds, 4), "brute_force": True}


def _cli_refs(queries: list, root: str) -> dict:
    workdir = os.path.join(workloads.BENCH_DIR, "out", "refs-cli")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    refused = {name for name, _ in workloads.CLI_REFUSED}
    out = {}
    for q in queries:
        workloads.write_fixtures([q], workdir)
        argv = [sys.executable, "-m", "uvinfo.cli", *workloads.cli_args(q)]
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True,
                              timeout=60, check=False)
        seen = {"exit": proc.returncode, "stdout": proc.stdout.decode()}
        traceback = b"Traceback" in proc.stderr
        entry = {"digest": q.digest}
        if q.qid in refused:
            entry["answer"] = {"exit": 2, "stdout": ""}
            if seen != entry["answer"] or traceback:
                last = proc.stderr.decode().strip().splitlines()[-1:]
                entry["note"] = (f"library today: exit {proc.returncode}"
                                 f"{' with a traceback' if traceback else ''}: "
                                 f"{last[0] if last else ''}")
        else:
            if proc.returncode != 0 or traceback:
                raise SystemExit(f"{q.qid}: exit {proc.returncode}: "
                                 f"{proc.stderr.decode()[-300:]}")
            entry["answer"] = seen
        out[q.qid] = entry
    return out


def main(names) -> None:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    frontier = workloads.frontier_qids()
    for workload in names or workloads.WORKLOADS:
        limit = workloads.LIMITS[workload]
        queries = workloads.all_pool_queries(workload)
        start = time.perf_counter()
        if workload == "cli_fixtures":
            answers = _cli_refs(queries, root)
        elif workload == "coding_theorem":
            answers = {q.qid: _coding_ref(q, limit) for q in queries}
        else:
            answers = {q.qid: _capacity_ref(q, q.qid in frontier, limit)
                       for q in queries}
        os.makedirs(workloads.REFS_DIR, exist_ok=True)
        path = os.path.join(workloads.REFS_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "answers": answers}, fh, indent=0,
                      sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(answers)} references in "
              f"{time.perf_counter() - start:.1f} s -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
