"""The uvinfo benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload capacity_search --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``README.md`` beside this file):

* ``capacity_search``: seeded random channels and products through
  ``capacity`` and ``rate_at_horizon``, plus frontier queries the seed
  cannot finish within the time limit;
* ``coding_theorem``: ``verify_coding_theorem`` over the full breakpoint
  grid of seeded random channels with 6-10 distinct images;
* ``cli_fixtures``: the README commands and a set of refused inputs, each
  a fresh ``python3 -m uvinfo.cli`` process.

One client runs the workload's fixed query set in a closed loop: every
query once, then the queries that did not fail again, until ``--seconds``
have passed.  Latencies are reported in reference seconds, scaled by a
calibration kernel timed between queries (see ``harness.py``).  Every answer is checked against ``refs/<workload>.json``
and by the independent checker.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same untraced loop, then one traced pass,
and reports the per-layer metrics.  The last line of stdout is the JSON result; a full
record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys

import harness
import spans
import workloads
from harness import ERROR, MISMATCH, OK, Outcome

SETUP_PROBES = 15
E2E_UNITS = {"wall_s": "s", "query_p50_s": "s", "query_tail_s": "s",
             "answered_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def _fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def _loadavg() -> list:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return []


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("PYTHONSTARTUP", None)
    return env


def measure_setup(workload: str, seed: int, root: str, env: dict) -> tuple:
    """Seconds of set-up in each of several fresh interpreters, measured
    and in reference seconds (scaled by the calibration kernel timed
    around each probe, as the query latencies are)."""
    probe = os.path.join(workloads.BENCH_DIR, "probe_setup.py")
    measured, scaled = [], []
    before = harness.calibrate()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, probe, workload, str(seed)],
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        after = harness.calibrate()
        seconds = float(proc.stdout.strip().splitlines()[-1])
        measured.append(seconds)
        scaled.append(seconds * harness.CALIBRATION_S / ((before + after) / 2))
        before = after
    return measured, scaled


# ---------------------------------------------------------------------------
# executing one query


class InProcess:
    """Queries answered by calling the library in this process."""

    def __init__(self, queries: list, refs: dict, limit: float):
        self.calls = {q.qid: workloads.prepare(q) for q in queries}
        self.refs = refs
        self.limit = limit

    def __call__(self, query) -> Outcome:
        status, value, seconds = harness.call_with_limit(
            self.calls[query.qid], self.limit)
        if status != OK:
            return Outcome(status, seconds, value)
        answer = workloads.answer_of(query, value)
        problems = workloads.answer_problems(query, answer,
                                             self.refs[query.qid]["answer"])
        if problems:
            return Outcome(MISMATCH, self.limit, "; ".join(problems))
        return Outcome(OK, seconds)


class Cli:
    """Queries answered by a fresh ``python3 -m uvinfo.cli`` process, or by
    ``launcher.py`` with the spans installed when ``trace_dir`` is set."""

    def __init__(self, refs: dict, limit: float, env: dict, workdir: str,
                 trace_dir=None):
        self.refs, self.limit, self.env = refs, limit, env
        self.workdir, self.trace_dir = workdir, trace_dir
        self.children = []      # (stats path) of traced children

    def argv(self, query) -> list:
        args = workloads.cli_args(query)
        if self.trace_dir is None:
            return [sys.executable, "-m", "uvinfo.cli", *args]
        stats = os.path.join(self.trace_dir, f"stats-{len(self.children)}.json")
        self.children.append(stats)
        return [sys.executable, os.path.join(workloads.BENCH_DIR, "launcher.py"),
                stats, os.path.join(self.trace_dir, "spans.jsonl.gz"),
                query.qid, "--", *args]

    def __call__(self, query) -> Outcome:
        status, proc, seconds = harness.run_child(
            self.argv(query), self.limit, self.env, self.workdir)
        if status != OK:
            return Outcome(status, seconds, "killed at the time limit")
        stderr = proc.stderr.decode(errors="replace")
        if "Traceback" in stderr:
            last = stderr.strip().splitlines()[-1]
            return Outcome(ERROR, self.limit,
                           f"exit {proc.returncode} with a traceback: {last}")
        answer = {"exit": proc.returncode,
                  "stdout": proc.stdout.decode(errors="replace")}
        ref = self.refs[query.qid]["answer"]
        if answer != ref:
            return Outcome(MISMATCH, self.limit,
                           f"exit {answer['exit']} (want {ref['exit']}), "
                           f"stdout {'matches' if answer['stdout'] == ref['stdout'] else 'differs'}")
        return Outcome(OK, seconds)


# ---------------------------------------------------------------------------


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "uvinfo", "__init__.py")):
        _fail(f"no uvinfo sources under {src}; run from the root of a checkout")
    refs_path = os.path.join(workloads.REFS_DIR, f"{args.workload}.json")
    if not os.path.isfile(refs_path):
        _fail(f"missing reference answers {refs_path}")
    out_dir = os.path.join(workloads.BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = _child_env(src)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": sys.version.split()[0], "nproc": os.cpu_count(),
              "loadavg_start": _loadavg(), "commit": _commit(root),
              "source_digest": _source_digest(src)}

    queries = workloads.queries_for(args.workload, args.seed)
    refs = workloads.load_refs(args.workload)
    drift = [q.qid for q in queries
             if q.qid not in refs or refs[q.qid]["digest"] != q.digest]
    if drift:
        _fail(f"generated inputs differ from the references: {drift[:3]}", 3)
    limit = workloads.LIMITS[args.workload]
    record["limit_s"] = limit

    if args.trace:
        metrics, extra = traced_run(args, queries, refs, limit, env, out_dir)
        summary = extra.pop("summary")
    else:
        setup, setup_scaled = measure_setup(args.workload, args.seed, root, env)
        if args.workload == "cli_fixtures":
            workdir = os.path.join(out_dir, "cli")
            workloads.write_fixtures(queries, workdir)
            execute = Cli(refs, limit, env, workdir)
            who = resource.RUSAGE_CHILDREN
        else:
            sys.path.insert(0, src)
            execute = InProcess(queries, refs, limit)
            who = resource.RUSAGE_SELF
        outcomes = harness.closed_loop(queries, execute, args.seconds)
        summary = harness.summarize(outcomes, limit)
        summary["setup_s"] = statistics.median(setup_scaled)
        summary["measured"]["setup_s"] = statistics.median(setup)
        summary["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        extra = {"setup_samples_s": setup, "setup_scaled_s": setup_scaled}

    record.update(extra)
    record["summary"] = summary
    record["metrics"] = metrics
    record["loadavg_end"] = _loadavg()
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {summary['queries']} queries, "
          f"{summary['runs']} runs, {summary['failed']} failed "
          f"(failed_ratio {summary['failed_ratio']:.4f}), "
          f"tail at p{summary['tail_percentile']:.1f} of {summary['queries']}")
    for qid, failure in summary["failures"].items():
        print(f"  failed {qid}: {failure['status']}: {failure['detail'][:160]}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print("  measured seconds before scaling to the reference speed: " +
          ", ".join(f"{k} {v:.6g}" for k, v in summary["measured"].items()) +
          f"; median scale {summary['scale_median']:.4g}")
    print(f"  record: {os.path.relpath(path, root)}")
    print(json.dumps({"correct": summary["mismatched"] == 0,
                      "attempted": summary["queries"],
                      "failed": summary["failed"],
                      "metrics": metrics}))


def traced_run(args, queries, refs, limit, env, out_dir) -> tuple:
    """The untraced closed loop, then one pass with the spans installed;
    the difference of their wall_s is the tracing overhead."""
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    if args.workload == "cli_fixtures":
        workdir = os.path.join(out_dir, "cli")
        trace_dir = os.path.join(out_dir, "trace-cli")
        os.makedirs(trace_dir, exist_ok=True)
        child_spans = os.path.join(trace_dir, "spans.jsonl.gz")
        if os.path.exists(child_spans):
            os.remove(child_spans)
        workloads.write_fixtures(queries, workdir)
        plain = harness.closed_loop(queries, Cli(refs, limit, env, workdir),
                                    args.seconds)
        traced_cli = Cli(refs, limit, env, workdir, trace_dir)
        traced = harness.closed_loop(queries, traced_cli, 0, 1)
        stats, import_times = {}, []
        for stats_path in traced_cli.children:
            if not os.path.exists(stats_path):
                continue
            with open(stats_path, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(stats_path)
            import_times.append(child["import_s"])
            spans.merge_stats(stats, child["stats"])
        if os.path.exists(child_spans):
            os.replace(child_spans, spans_path)
        import_s = statistics.median(import_times) if import_times else None
    else:
        sys.path.insert(0, os.path.join(os.getcwd(), "src"))
        execute = InProcess(queries, refs, limit)
        plain = harness.closed_loop(queries, execute, args.seconds)
        tracer = spans.Tracer()
        patched = spans.install(tracer)
        try:
            traced = harness.closed_loop(queries, execute, 0, 1)
        finally:
            spans.uninstall(patched)
        tracer.write_spans(spans_path, f"{args.workload} seed {args.seed}")
        stats, import_s = tracer.stats, None
    plain_summary = harness.summarize(plain, limit)
    summary = harness.summarize(traced, limit)
    overhead = summary["wall_s"] - plain_summary["wall_s"]
    metrics, absent = spans.layer_metrics(stats, import_s, overhead)
    return metrics, {"summary": summary, "untraced_summary": plain_summary,
                     "layer_stats": stats, "absent": absent,
                     "predictions": {m: moves for m, _, moves in spans.PER_LAYER},
                     "spans": os.path.relpath(spans_path, os.getcwd())}


if __name__ == "__main__":
    main()
