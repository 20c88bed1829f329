"""Spans around the calls into each uvinfo layer, recorded from outside.

``install`` wraps the public functions named in ``TARGETS`` and rebinds
every module attribute of uvinfo that refers to them (``capacity`` is bound
in ``chancap`` and ``memoryless``, ``overlap_family`` in ``infocalc``,
``chancap`` and ``memoryless``, and so on), so the library itself is not
edited.  Each call becomes a span with a parent id.  Self time is the
span's duration minus the durations of its child spans; it is accumulated
per layer as the spans close.

Spans are kept in compact arrays and written out once, at the end.  The
one exception is ``uvcore.of``, which is called for every set measured:
it is counted and timed in aggregate only, to bound memory.
"""

from __future__ import annotations

import array
import gzip
import importlib
import json
import sys
import time

# layer name -> where the callables live: "module:attr" for functions,
# "module:Class.method" for methods, "module:*.of" for every
# UncertaintyFunction subclass's measure.
TARGETS = {
    "uvcore.of": ["uvinfo.uvcore:*.of"],
    "uvcore.arrangement": ["uvinfo.uvcore:UncertainPair.arrangement"],
    "infocalc.side_profile": ["uvinfo.infocalc:side_profile"],
    "infocalc.overlap_family": ["uvinfo.infocalc:overlap_family"],
    "infocalc.association_sets": ["uvinfo.infocalc:association_sets"],
    "infocalc.taxicab_family": ["uvinfo.infocalc:taxicab_family"],
    "infocalc.mutual_information": ["uvinfo.infocalc:mutual_information"],
    "chancap.capacity": ["uvinfo.chancap:capacity"],
    "chancap.mi_sup_oracle": ["uvinfo.chancap:mi_sup_oracle"],
    "chancap.induced_pair": ["uvinfo.chancap:induced_pair"],
    "chancap.verify_coding_theorem": ["uvinfo.chancap:verify_coding_theorem"],
    "memoryless.materialize": ["uvinfo.memoryless:ProductChannel.materialize"],
    "memoryless.rate_at_horizon": ["uvinfo.memoryless:rate_at_horizon"],
    "memoryless.single_letter_check": ["uvinfo.memoryless:single_letter_check"],
    "memoryless.capacity_profile": ["uvinfo.memoryless:capacity_profile"],
    "memoryless.tensorization_check": ["uvinfo.memoryless:tensorization_check"],
    "apps.matrix_capacity": ["uvinfo.apps:matrix_capacity"],
    "apps.confusion_ingest": ["uvinfo.apps:confusion_ingest"],
    "apps.hamming_distance_bound": ["uvinfo.apps:hamming_distance_bound"],
    "cli.parse": ["uvinfo.cli:parse_channel_spec", "uvinfo.cli:parse_pair_spec",
                  "uvinfo.cli:parse_m_spec", "uvinfo.cli:parse_matrix_spec",
                  "uvinfo.memoryless:parse_sequence_spec"],
    "cli.run_command": ["uvinfo.cli:run_command"],
}

AGGREGATE_ONLY = frozenset({"uvcore.of"})

UVINFO_MODULES = ("uvinfo", "uvinfo.uvcore", "uvinfo.infocalc", "uvinfo.chancap",
                  "uvinfo.memoryless", "uvinfo.apps", "uvinfo.cli")


def _capacity_counts(tracer, args, result):
    n = len(args[0].x_symbols)
    tracer.count("chancap.capacity", "pairs", n * (n - 1) // 2)
    tracer.count("chancap.capacity", "sizes_tried",
                 len(result.per_size_feasibility))


def _oracle_counts(tracer, args, result):
    # the oracle enumerates every nonempty set of distinct-image inputs
    tracer.count("chancap.mi_sup_oracle", "codebooks",
                 2 ** len(set(args[0].images)) - 1)


def _family_counts(tracer, args, result):
    tracer.count("infocalc.overlap_family", "none", int(result is None))


def _certificate_counts(tracer, args, result):
    tracer.count("memoryless.single_letter_check", "certifies",
                 int(result.certifies))


ON_RESULT = {
    "chancap.capacity": _capacity_counts,
    "chancap.mi_sup_oracle": _oracle_counts,
    "infocalc.overlap_family": _family_counts,
    "memoryless.single_letter_check": _certificate_counts,
}


class Tracer:
    """Span recorder with a parent stack; self time per layer is
    accumulated as each span closes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.names: list = []
        self._name_ids: dict = {}
        self.parent = array.array("q")
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.raised = array.array("b")
        self.stats: dict = {}
        self._stack: list = []   # [span id or -1, start, child seconds]

    def _stat(self, name: str) -> dict:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = {"calls": 0, "self_s": 0.0, "raised": 0}
        return stat

    def count(self, name: str, key: str, amount: int) -> None:
        stat = self._stat(name)
        stat[key] = stat.get(key, 0) + amount

    def enter(self, name: str) -> None:
        now = self.clock()
        span_id = -1
        if name not in AGGREGATE_ONLY:
            span_id = len(self.start)
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.parent.append(self._parent_id())
            self.name.append(self._name_ids[name])
            self.start.append(now - self.origin)
            self.end.append(0.0)
            self.raised.append(0)
        self._stack.append([span_id, now, 0.0])

    def _parent_id(self) -> int:
        for frame in reversed(self._stack):
            if frame[0] >= 0:
                return frame[0]
        return -1

    def exit(self, name: str, raised: bool) -> None:
        now = self.clock()
        span_id, began, child_s = self._stack.pop()
        duration = now - began
        if self._stack:
            self._stack[-1][2] += duration
        stat = self._stat(name)
        stat["calls"] += 1
        stat["self_s"] += duration - child_s
        stat["raised"] += int(raised)
        if span_id >= 0:
            self.end[span_id] = now - self.origin
            self.raised[span_id] = int(raised)

    def wrap(self, name: str, fn):
        on_result = ON_RESULT.get(name)

        def traced(*args, **kwargs):
            self.enter(name)
            raised = False
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised = True
                raise
            finally:
                self.exit(name, raised)
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def write_spans(self, path: str, label: str) -> None:
        """One JSON line per span: [id, parent, layer, start_s, end_s,
        raised], times relative to the tracer's creation."""
        with gzip.open(path, "at", encoding="utf-8") as fh:
            fh.write(json.dumps({"process": label,
                                 "aggregate_only": sorted(AGGREGATE_ONLY),
                                 "stats": self.stats}) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps(
                    [i, self.parent[i], self.names[self.name[i]],
                     round(self.start[i], 7), round(self.end[i], 7),
                     self.raised[i]]) + "\n")


def _resolve(spec: str):
    """Yield (owner, attribute, original) for one TARGETS entry; owner is a
    class for methods and a module for functions."""
    module_name, _, path = spec.partition(":")
    module = importlib.import_module(module_name)
    if path.startswith("*."):
        attr = path[2:]
        base = module.UncertaintyFunction
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, base)
                    and attr in vars(obj)):
                yield obj, attr, vars(obj)[attr]
    elif "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        yield cls, attr, vars(cls)[attr]
    else:
        yield module, path, getattr(module, path)


def install(tracer: Tracer) -> list:
    """Wrap every target of the loaded uvinfo modules; returns the
    (owner, attribute, original) list that ``uninstall`` restores."""
    patched = []
    modules = [sys.modules[m] for m in UVINFO_MODULES if m in sys.modules]
    for layer, specs in TARGETS.items():
        for spec in specs:
            if spec.partition(":")[0] not in sys.modules:
                continue
            for owner, attr, original in _resolve(spec):
                wrapper = tracer.wrap(layer, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    patched.append((owner, attr, original))
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            patched.append((module, name, original))
    return patched


def uninstall(patched: list) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def merge_stats(into: dict, stats: dict) -> None:
    for name, stat in stats.items():
        target = into.setdefault(name, {})
        for key, value in stat.items():
            target[key] = target.get(key, 0) + value


# Per-layer metrics of a traced run, each with the end-to-end metric and
# workload it is predicted to move.  Counts and self times cover one pass
# over the run's query set.
PER_LAYER = (
    ("uvcore.of.calls", "count", "wall_s on coding_theorem"),
    ("uvcore.of.self_s", "s", "wall_s on coding_theorem"),
    ("uvcore.arrangement.calls", "count", "query_p50_s on cli_fixtures"),
    ("uvcore.arrangement.self_s", "s", "query_p50_s on cli_fixtures"),
    ("infocalc.side_profile.calls", "count", "wall_s on coding_theorem"),
    ("infocalc.side_profile.self_s", "s", "wall_s on coding_theorem"),
    ("infocalc.overlap_family.calls", "count", "wall_s on coding_theorem"),
    ("infocalc.overlap_family.self_s", "s", "wall_s on coding_theorem"),
    ("infocalc.overlap_family.none_ratio", "ratio", "wall_s on coding_theorem"),
    ("infocalc.association_sets.calls", "count", "wall_s on coding_theorem"),
    ("infocalc.association_sets.self_s", "s", "wall_s on coding_theorem"),
    ("infocalc.taxicab_family.self_s", "s", "query_p50_s on cli_fixtures"),
    ("infocalc.mutual_information.self_s", "s", "query_p50_s on cli_fixtures"),
    ("chancap.capacity.calls", "count",
     "wall_s, query_p50_s and query_tail_s on capacity_search"),
    ("chancap.capacity.self_s", "s",
     "wall_s and query_tail_s on capacity_search; query_tail_s on cli_fixtures"),
    ("chancap.capacity.pairs", "count", "wall_s on capacity_search"),
    ("chancap.capacity.sizes_tried", "count",
     "wall_s and query_tail_s on capacity_search"),
    ("chancap.mi_sup_oracle.calls", "count", "wall_s on coding_theorem"),
    ("chancap.mi_sup_oracle.self_s", "s", "wall_s on coding_theorem"),
    ("chancap.mi_sup_oracle.codebooks", "count", "wall_s on coding_theorem"),
    ("chancap.induced_pair.calls", "count", "wall_s on coding_theorem"),
    ("chancap.induced_pair.self_s", "s", "wall_s on coding_theorem"),
    ("chancap.verify_coding_theorem.self_s", "s", "wall_s on coding_theorem"),
    ("memoryless.materialize.calls", "count", "wall_s on capacity_search (small share)"),
    ("memoryless.materialize.self_s", "s", "wall_s on capacity_search (small share)"),
    ("memoryless.rate_at_horizon.self_s", "s", "wall_s on capacity_search"),
    ("memoryless.single_letter_check.calls", "count", "query_tail_s on cli_fixtures"),
    ("memoryless.single_letter_check.self_s", "s", "query_tail_s on cli_fixtures"),
    ("memoryless.single_letter_check.raised", "count", "query_tail_s on cli_fixtures"),
    ("memoryless.single_letter_check.certify_ratio", "ratio",
     "query_tail_s on cli_fixtures"),
    ("memoryless.capacity_profile.self_s", "s", "query_tail_s on cli_fixtures"),
    ("memoryless.tensorization_check.calls", "count", "query_tail_s on cli_fixtures"),
    ("memoryless.tensorization_check.self_s", "s", "query_tail_s on cli_fixtures"),
    ("apps.matrix_capacity.self_s", "s", "query_p50_s on cli_fixtures"),
    ("apps.confusion_ingest.self_s", "s", "query_p50_s on cli_fixtures"),
    ("apps.hamming_distance_bound.self_s", "s", "query_p50_s on cli_fixtures"),
    ("cli.import_s", "s", "setup_s and query_p50_s on cli_fixtures"),
    ("cli.parse.self_s", "s", "query_p50_s on cli_fixtures"),
    ("cli.run_command.self_s", "s", "query_p50_s on cli_fixtures"),
    ("trace.overhead_s", "s", "none: the cost of tracing itself"),
)

_RATIOS = {"none_ratio": "none", "certify_ratio": "certifies"}


def layer_metrics(stats: dict, import_s, overhead_s: float) -> tuple:
    """({metric: {"value", "unit"}}, {metric: why it reads 0}) for every
    per-layer metric; ``import_s`` is None when no CLI process ran."""
    metrics, absent = {}, {}
    for metric, unit, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if metric == "cli.import_s":
            value = import_s or 0.0
            if import_s is None:
                absent[metric] = "no CLI process runs in this workload"
        elif metric == "trace.overhead_s":
            value = overhead_s
        else:
            entry = stats.get(layer, {})
            calls = entry.get("calls", 0)
            if stat in _RATIOS:
                value = entry.get(_RATIOS[stat], 0) / calls if calls else 0.0
            else:
                value = entry.get(stat, 0)
            if not calls:
                absent[metric] = "the layer is not called in this workload"
        metrics[metric] = {"value": value, "unit": unit}
    return metrics, absent
