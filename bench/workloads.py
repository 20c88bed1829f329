"""The benchmark's workloads: seeded query sets drawn from fixed pools.

Every instance is generated from its pool name and index alone, so the
committed reference answers in ``refs/`` cover every seed: ``--seed`` only
chooses which pool instances a run uses and in what order.  The draw is
stratified: each pool is split into ``per_run`` bins of instances with
similar reference library time, and a run takes one instance from each
bin, so every seed gets a query set of about the same cost.  Each query
records a digest of its inputs; the references store the same digest, so a
drift in generation is caught instead of being compared against the wrong
answer.

Nothing here imports uvinfo at module level.  ``prepare`` builds the
library objects for one query (the work timed as set-up) and returns the
call the harness times.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(BENCH_DIR, "refs")

WORKLOADS = ("capacity_search", "coding_theorem", "cli_fixtures")

# Per-query time limits.  The frontier queries take more than three times
# the capacity_search limit on the reference machine, every other query
# less than a fifth of its workload's limit.
LIMITS = {"capacity_search": 2.0, "coding_theorem": 15.0, "cli_fixtures": 5.0}


@dataclass(frozen=True)
class Query:
    qid: str
    spec: dict      # JSON-able description of the inputs

    @property
    def kind(self) -> str:
        return self.spec["kind"]

    @property
    def digest(self) -> str:
        text = json.dumps(self.spec, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Pool:
    """Random channels with ``inputs`` inputs over ``outputs`` outputs and
    image sizes drawn from ``image_sizes``; a run draws ``per_run`` of the
    ``indices``."""

    name: str
    inputs: int
    outputs: int
    image_sizes: tuple
    indices: tuple
    per_run: int
    distinct: bool = False   # redraw until every image differs

    def images(self, index: int) -> list:
        rng = random.Random(f"uvinfo-bench/{self.name}/{index}")
        lo, hi = self.image_sizes
        while True:
            images = [sorted(rng.sample(range(self.outputs), rng.randint(lo, hi)))
                      for _ in range(self.inputs)]
            if not self.distinct or len({tuple(i) for i in images}) == self.inputs:
                return images


DELTAS = ("0", "1/10", "1/2")

CAPACITY_POOLS = (
    Pool("in20-img2to5", 20, 30, (2, 5), tuple(range(36)), 18),
    Pool("in30-img2to5", 30, 30, (2, 5), tuple(range(32)), 16),
    Pool("in40-img2to5", 40, 30, (2, 5), tuple(range(24)), 12),
    Pool("in90-img3to8", 90, 30, (3, 8), tuple(range(24)), 12),
    Pool("in90-img6to14", 90, 30, (6, 14), tuple(range(24)), 12),
)
RATE_POOLS = ((Pool("base5-img2to3", 5, 7, (2, 3), tuple(range(12)), 6), 2),)
# (pool, horizon or None for a plain capacity query, delta); the indices
# are instances checked to exceed the limit by more than three times.
FRONTIER = (
    (Pool("in120-img2to5", 120, 30, (2, 5), (0, 1, 2), 1), None, "1/10"),
    (Pool("base5-img2to3-h3", 5, 7, (2, 3), (2, 4, 5), 1), 3, "1/10"),
)
CODING_POOLS = (
    Pool("img6", 6, 10, (2, 5), tuple(range(30)), 6, distinct=True),
    Pool("img7", 7, 10, (2, 5), tuple(range(24)), 6, distinct=True),
    Pool("img8", 8, 10, (2, 5), tuple(range(36)), 12, distinct=True),
    Pool("img9", 9, 10, (2, 5), tuple(range(12)), 4, distinct=True),
    Pool("img10", 10, 10, (2, 5), tuple(range(4)), 1, distinct=True),
)


def breakpoint_grid(images: list, outputs: int) -> list:
    """Zero plus every size-scaled pairwise equivocation below the noise
    floor: the deltas where per-size feasibility can change."""
    v_min = Fraction(min(len(i) for i in images), outputs)
    grid = {Fraction(0)}
    for a, b in itertools.combinations(images, 2):
        e = Fraction(len(set(a) & set(b)), outputs)
        for k in range(1, len(images) + 1):
            if 0 < k * e < v_min:
                grid.add(k * e)
    return [str(d) for d in sorted(grid)]


def capacity_queries(pool: Pool, index: int, horizon=None, deltas=DELTAS) -> list:
    images = pool.images(index)
    queries = []
    for delta in deltas:
        spec = {"kind": "capacity", "outputs": pool.outputs, "images": images,
                "delta": delta}
        qid = f"{pool.name}/{index}/{delta}"
        if horizon is not None:
            spec.update(kind="rate", horizon=horizon)
            qid = f"{pool.name}/{index}/h{horizon}/{delta}"
        queries.append(Query(qid, spec))
    return queries


def coding_query(pool: Pool, index: int) -> Query:
    images = pool.images(index)
    return Query(f"{pool.name}/{index}",
                 {"kind": "verify", "outputs": pool.outputs, "images": images,
                  "grid": breakpoint_grid(images, pool.outputs)})


# ---------------------------------------------------------------------------
# cli_fixtures: README commands as fresh processes

SEQUENCE = '{"kind": "geometric", "base": "7/342", "first": "2/9"}'
FIG5 = ["--channel", "fig5.json", "--m", "card:19"]
CLI_COMMANDS = (
    ("analyze-taxicab", ["analyze", "--pair", "walkers.json", "--delta1", "1/6",
                         "--delta2", "1/4", "--taxicab"]),
    ("analyze", ["analyze", "--pair", "walkers.json"]),
    ("mi-XgivenY", ["mi", "--pair", "walkers.json", "--delta1", "1/6",
                    "--direction", "XgivenY"]),
    ("mi-YgivenX", ["mi", "--pair", "walkers.json", "--delta1", "1/4",
                    "--direction", "YgivenX"]),
    ("capacity-2/9", ["capacity", *FIG5, "--delta", "2/9"]),
    ("capacity-4/9", ["capacity", *FIG5, "--delta", "4/9"]),
    ("rates-horizon-2", ["rates", *FIG5, "--delta", "2/9", "--horizon", "2"]),
    ("rates-sequence", ["rates", *FIG5, "--sequence", SEQUENCE, "--n-max", "2"]),
    ("single-letter-T14", ["single-letter", "--channel", "fig5.json",
                           "--m", "card:19:3", "--variant", "T14"]),
    ("single-letter-Cor2", ["single-letter", *FIG5, "--variant", "Cor2",
                            "--codebook", "1,7,13"]),
    ("verify", ["verify", *FIG5, "--deltas", "0,2/9"]),
    ("hamming", ["hamming", "--words", "0000000,1110000,1101001",
                 "--tau", "1/7", "--delta", "0"]),
    ("classify-confusion", ["classify", "--confusion", "{confusion}",
                            "--delta", "3/4"]),
    ("classify-matrix", ["classify", "--matrix", "{matrix}", "--delta", "1/4"]),
    ("examples", ["examples"]),
)
# Inputs the CLI must refuse with exit 2 and no traceback.
CLI_REFUSED = (
    ("refuse-unnormalized-m", ["capacity", "--channel", "fig5.json",
                               "--m", "card:7", "--delta", "2/9"]),
    ("refuse-horizon-0", ["rates", *FIG5, "--delta", "2/9", "--horizon", "0"]),
    ("refuse-horizon-over-cap", ["rates", *FIG5, "--delta", "2/9",
                                 "--horizon", "3"]),
    ("refuse-malformed-json", ["capacity", "--channel", "{malformed}",
                               "--m", "card:19", "--delta", "0"]),
    ("refuse-decimal-delta", ["capacity", *FIG5, "--delta", "0.5"]),
    ("refuse-horizon-1000000", ["rates", *FIG5, "--delta", "2/9",
                                "--horizon", "1000000"]),
)
FIXTURE_VARIANTS = 6
MALFORMED_CHANNEL = '{"map": {"1": [1, 2], "2": [2'


def confusion_csv(variant: int) -> str:
    """A classifier confusion log over eight labels: each true label is
    predicted as itself and as up to two others."""
    rng = random.Random(f"uvinfo-bench/confusion/{variant}")
    labels = [f"c{i}" for i in range(8)]
    rows = []
    for label in labels:
        others = [x for x in labels if x != label]
        for predicted in [label] + rng.sample(others, rng.randint(0, 2)):
            rows.extend([(label, predicted)] * rng.randint(1, 3))
    rng.shuffle(rows)
    return "true,predicted\n" + "".join(f"{t},{p}\n" for t, p in rows)


def matrix_json(variant: int) -> str:
    """An equivocation matrix over eight labels with entries in eighths up
    to 1/2 on about half of the pairs."""
    rng = random.Random(f"uvinfo-bench/matrix/{variant}")
    labels = list("abcdefgh")
    entries = [[a, b, str(Fraction(rng.randint(1, 4), 8))]
               for a, b in itertools.combinations(labels, 2)
               if rng.random() < 0.5]
    return json.dumps({"labels": labels, "entries": entries, "v_min": "1/2"},
                      indent=1) + "\n"


def fixture_texts(confusion: int, matrix: int) -> dict:
    return {"confusion": (f"confusion-{confusion}.csv", confusion_csv(confusion)),
            "matrix": (f"matrix-{matrix}.json", matrix_json(matrix)),
            "malformed": ("malformed.json", MALFORMED_CHANNEL)}


def write_fixtures(queries: list, workdir: str) -> None:
    """Write the fixture files the CLI queries name into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    for q in queries:
        for name, text in q.spec["fixtures"].values():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def cli_args(query: Query) -> list:
    """The query's uvinfo arguments with fixture placeholders replaced by
    the file names ``write_fixtures`` uses."""
    names = {"{" + key + "}": name
             for key, (name, _) in query.spec["fixtures"].items()}
    return [names.get(arg, arg) for arg in query.spec["argv"]]


def cli_queries(confusion: int, matrix: int) -> list:
    variants = {"confusion": confusion, "matrix": matrix}
    texts = fixture_texts(confusion, matrix)
    queries = []
    for name, argv in CLI_COMMANDS:
        uses = [k for k in variants if "{" + k + "}" in argv]
        suffix = "".join(f"@{k}{variants[k]}" for k in uses)
        fixtures = {k: texts[k] for k in uses}
        for fmt in ("text", "json"):
            full = argv + (["--format", "json"] if fmt == "json" else [])
            queries.append(Query(f"{name}{suffix}/{fmt}",
                                 {"kind": "cli", "argv": full,
                                  "fixtures": fixtures}))
    for name, argv in CLI_REFUSED:
        fixtures = {k: texts[k] for k in ("malformed",) if "{" + k + "}" in argv}
        queries.append(Query(name, {"kind": "cli", "argv": argv,
                                    "fixtures": fixtures}))
    return queries


# ---------------------------------------------------------------------------
# query sets


def _instance_costs(workload: str) -> dict:
    """Library time per pool instance ("pool/index"), from the references:
    the median of three runs in reference seconds (see ``make_refs.py``)."""
    costs = {}
    for qid, entry in load_refs(workload).items():
        key = "/".join(qid.split("/")[:2])
        costs[key] = costs.get(key, 0.0) + entry.get("library_s", 0.0)
    return costs


def _draw(pool: Pool, rng: random.Random, costs: dict) -> list:
    """One index from each of ``per_run`` equal bins of the pool ordered by
    reference cost."""
    order = sorted(pool.indices,
                   key=lambda i: (costs.get(f"{pool.name}/{i}", 0.0), i))
    size = len(order) // pool.per_run
    return [rng.choice(order[b * size:(b + 1) * size])
            for b in range(pool.per_run)]


def queries_for(workload: str, seed: int) -> list:
    """The run's fixed query set, in the order of its first pass."""
    rng = random.Random(f"uvinfo-bench/select/{workload}/{seed}")
    queries = []
    if workload == "capacity_search":
        costs = _instance_costs(workload)
        for pool in CAPACITY_POOLS:
            for index in _draw(pool, rng, costs):
                queries.extend(capacity_queries(pool, index))
        for pool, horizon in RATE_POOLS:
            for index in _draw(pool, rng, costs):
                queries.extend(capacity_queries(pool, index, horizon))
        for pool, horizon, delta in FRONTIER:
            for index in _draw(pool, rng, costs):
                queries.extend(capacity_queries(pool, index, horizon, (delta,)))
    elif workload == "coding_theorem":
        costs = _instance_costs(workload)
        for pool in CODING_POOLS:
            for index in _draw(pool, rng, costs):
                queries.append(coding_query(pool, index))
    elif workload == "cli_fixtures":
        queries = cli_queries(rng.randrange(FIXTURE_VARIANTS),
                              rng.randrange(FIXTURE_VARIANTS))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(queries)
    return queries


def all_pool_queries(workload: str) -> list:
    """Every query any seed can draw, for generating the references."""
    if workload == "capacity_search":
        out = [q for pool in CAPACITY_POOLS for i in pool.indices
               for q in capacity_queries(pool, i)]
        out += [q for pool, h in RATE_POOLS for i in pool.indices
                for q in capacity_queries(pool, i, h)]
        out += [q for pool, h, d in FRONTIER for i in pool.indices
                for q in capacity_queries(pool, i, h, (d,))]
        return out
    if workload == "coding_theorem":
        return [coding_query(pool, i) for pool in CODING_POOLS
                for i in pool.indices]
    seen = {}
    for c in range(FIXTURE_VARIANTS):
        for q in cli_queries(c, c):
            seen[q.qid] = q
    return list(seen.values())


def frontier_qids() -> set:
    return {q.qid for pool, h, d in FRONTIER for i in pool.indices
            for q in capacity_queries(pool, i, h, (d,))}


def load_refs(workload: str) -> dict:
    with open(os.path.join(REFS_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)["answers"]


# ---------------------------------------------------------------------------
# library calls and their answers


def images_map(spec: dict) -> dict:
    """The channel as the checker sees it: {input: set(outputs)}, with the
    product map for block queries."""
    from checker import product_map
    base = {x: set(img) for x, img in enumerate(spec["images"])}
    if spec["kind"] == "rate":
        return product_map(base, spec["horizon"])
    return base


def n_outputs(spec: dict) -> int:
    return spec["outputs"] ** spec.get("horizon", 1)


def prepare(query: Query):
    """Build the query's library objects; return the zero-argument call the
    harness times.  The call resolves the public function through the
    ``uvinfo`` package at call time, so traced runs see the wrappers."""
    import uvinfo
    spec = query.spec
    ch = uvinfo.Channel.of(dict(enumerate(spec["images"])),
                           y_alphabet=range(spec["outputs"]))
    m = uvinfo.CardinalityPower(spec["outputs"])
    if spec["kind"] == "capacity":
        delta = Fraction(spec["delta"])
        return lambda: uvinfo.capacity(ch, m, delta)
    if spec["kind"] == "rate":
        delta = Fraction(spec["delta"])
        return lambda: uvinfo.rate_at_horizon(ch, m, delta, spec["horizon"])
    if spec["kind"] == "verify":
        grid = [Fraction(d) for d in spec["grid"]]
        return lambda: uvinfo.verify_coding_theorem(ch, m, grid)
    raise ValueError(f"no in-process call for {spec['kind']!r}")


def answer_of(query: Query, result) -> dict:
    """The JSON form of a library result, as stored in the references."""
    kind = query.kind
    if kind == "capacity":
        return {"count": result.count, "witness": list(result.witness)}
    if kind == "rate":
        return {"count": result.count, "horizon": result.horizon}
    rows = [[str(r.delta), r.capacity_count, list(r.capacity_witness),
             r.sup_count, list(r.sup_codebook), str(r.sup_delta_tilde),
             r.unrestricted_count, r.match] for r in result.rows]
    return {"ok": result.ok, "rows": rows}


def answer_problems(query: Query, answer: dict, ref: dict) -> list:
    """Why an answer is wrong: a difference from the reference, or a
    witness the independent checker rejects."""
    from checker import witness_problems
    problems = []
    if answer != ref:
        problems.append(f"answer {answer} differs from reference {ref}")
    spec = query.spec
    if query.kind == "capacity":
        problems += witness_problems(images_map(spec), n_outputs(spec),
                                     Fraction(spec["delta"]), answer["count"],
                                     answer["witness"])
    elif query.kind == "verify":
        images = images_map(spec)
        for row in answer["rows"]:
            problems += witness_problems(images, spec["outputs"],
                                         Fraction(row[0]), row[1], row[2])
            if not row[7]:
                problems.append(f"coding theorem row at {row[0]} does not match")
    return problems
