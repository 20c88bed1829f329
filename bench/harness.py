"""Closed-loop timing: one client, the next query only after the last one
returned, each under a time limit that cannot hang the harness.

In-process queries run under ``call_with_limit``: a real-time interval
timer raises ``QueryTimeout`` (a ``BaseException``, so no ``except
Exception`` in the library swallows it) at the next bytecode boundary.
Child processes run under ``run_child``, which kills the child at the
limit and waits for it.  Queries that time out, raise, exit with the
wrong code or answer wrongly are failed, and their latency counts at the
limit.

The machine's speed is not constant: on shared hardware identical work
runs up to about 1.6 times slower in some phases, which last seconds to
minutes.  So between consecutive queries the loop times a fixed
calibration kernel, and each latency is also reported in reference
seconds: the measured seconds times ``CALIBRATION_S`` over the kernel's
time around that query.  A change to the program cannot move the kernel,
which uses no program code and runs with the garbage collector paused.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction

OK, TIMEOUT, ERROR, MISMATCH = "ok", "timeout", "error", "mismatch"


class QueryTimeout(BaseException):
    """Raised inside a query when its time limit expires."""


def _raise_timeout(signum, frame):
    raise QueryTimeout()


@dataclass
class Outcome:
    status: str
    seconds: float      # measured latency; the limit for a failed query
    detail: str = ""
    scale: float = 1.0  # reference seconds per measured second


# The kernel's time at the reference speed (the fast phase of the 2-vCPU
# machine the benchmark was written on).
CALIBRATION_S = 0.0025
_KERNEL_SETS = [frozenset(random.Random(i).sample(range(30), 6))
                for i in range(30)]


def calibrate() -> float:
    """Seconds for one run of the calibration kernel: exact fractions and
    set intersections, the operations the library spends its time on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total, threshold = Fraction(0), Fraction(1, 10)
        for a in _KERNEL_SETS:
            for b in _KERNEL_SETS:
                value = Fraction(len(a & b), 30)
                if value <= threshold:
                    total += value
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def call_with_limit(fn, limit: float):
    """Run ``fn()``; return (status, value or error text, seconds)."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return OK, value, time.perf_counter() - start
    except QueryTimeout:
        return TIMEOUT, f"over the {limit:g} s limit", limit
    except Exception as exc:    # the query's failure is the measurement
        return ERROR, f"{type(exc).__name__}: {exc}", limit
    finally:
        signal.signal(signal.SIGALRM, previous)


def run_child(argv: list, limit: float, env: dict, cwd: str):
    """Run a child process to completion or kill it at the limit; return
    (status, CompletedProcess or None, seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=limit,
                              env=env, cwd=cwd, check=False)
    except subprocess.TimeoutExpired:
        return TIMEOUT, None, limit
    return OK, proc, time.perf_counter() - start


def closed_loop(queries: list, execute, seconds: float, passes=None) -> dict:
    """Answer every query once, then keep repeating the ones that have not
    failed until ``seconds`` have passed (or for ``passes`` passes).
    ``execute(query)`` returns an Outcome.  Returns {qid: [Outcome, ...]}."""
    outcomes = {q.qid: [] for q in queries}
    deadline = time.perf_counter() + seconds
    done = 0
    before = calibrate()
    while True:
        live = [q for q in queries
                if all(o.status == OK for o in outcomes[q.qid])]
        if done and (not live or (passes is not None and done >= passes)):
            break
        for q in (live if done else queries):
            if done and passes is None and time.perf_counter() >= deadline:
                return outcomes
            outcome = execute(q)
            after = calibrate()
            outcome.scale = CALIBRATION_S / ((before + after) / 2)
            before = after
            outcomes[q.qid].append(outcome)
        done += 1
    return outcomes


def query_latency(outs: list, limit: float, scaled: bool = True) -> float:
    """A query's latency: the mean of its runs, in reference seconds unless
    ``scaled`` is false, or the limit if any run failed."""
    if any(o.status != OK for o in outs):
        return limit
    return statistics.fmean(o.seconds * (o.scale if scaled else 1.0)
                            for o in outs)


def tail(values: list) -> tuple:
    """(value, percentile) at the highest percentile that leaves at least
    ten values beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize(outcomes: dict, limit: float) -> dict:
    per_query = {qid: query_latency(outs, limit)
                 for qid, outs in outcomes.items()}
    latencies = list(per_query.values())
    failed = {qid: next(o for o in outs if o.status != OK)
              for qid, outs in outcomes.items()
              if any(o.status != OK for o in outs)}
    tail_value, tail_pct = tail(latencies)
    raw = [query_latency(outs, limit, scaled=False) for outs in outcomes.values()]
    scales = [o.scale for outs in outcomes.values() for o in outs]
    return {
        "wall_s": sum(latencies),
        "query_p50_s": statistics.median(latencies),
        "query_tail_s": tail_value,
        "tail_percentile": tail_pct,
        "queries": len(latencies),
        "runs": sum(len(outs) for outs in outcomes.values()),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(latencies),
        "answered_ratio": 1 - len(failed) / len(latencies),
        "failures": {qid: {"status": o.status, "detail": o.detail[:500]}
                     for qid, o in sorted(failed.items())},
        "mismatched": sum(o.status == MISMATCH for o in failed.values()),
        "latency_s": {qid: round(v, 6) for qid, v in sorted(per_query.items())},
        "measured": {"wall_s": sum(raw), "query_p50_s": statistics.median(raw),
                     "query_tail_s": tail(raw)[0]},
        "scale_median": statistics.median(scales),
    }
