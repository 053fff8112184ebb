"""The benchmark's four workloads: seeded job streams, the library calls
each job makes, and the oracle check of each verdict.

A job is one call sequence into finarith's public API that returns a
verdict, as one `fa` invocation would: every job builds its own models and
systems, so no memo table carries from one job to the next.  Jobs come in
blocks with a fixed kind composition, in a seeded order, so every block of
a workload does the same mix of work.  `prepare` expands a job's seeded
operands and `check` compares its verdict with an oracle from oracles.py;
neither is timed.
"""
from __future__ import annotations

import io
import json
import math
import random
from importlib.resources import files
from typing import Callable, NamedTuple

import finarith
from finarith.corpus import load_packaged_formulas, load_packaged_pairs

import oracles

WIDTH = 5  # digit width of every lifted model, as in `fa lift`
LIFT_OPS = 300
TOWER_OPS = 300
TOWER_LIMIT_PAIRS = 20
OP_KINDS = ("plus", "times", "succ", "less")
SCHEMA_NAMES = ("K", "T", "Four", "Dot2", "Dot3")
PRIME_ABOVE = (
    "A a < N. E p. (a < p & 1 < p"
    " & A d < p. A e < p. ((1 < d & 1 < e) -> !Times(d, e, p)))"
)
HOT_TRUNC = 10  # the prime-above sentence fails at a = 7 on Truncation(10)
SUCC_POSSIBLE = "A a. dia E b. b = a + 1"
SUM_PRODUCT = "A a. A b. dia E c. E d. (Plus(a, b, c) & Times(a, b, d))"


class Cycler:
    """Draws from a fixed list in seeded permutations, one whole pass at a
    time, so any stretch of jobs sees the values in near-equal shares."""

    def __init__(self, rng, values):
        self.rng = rng
        self.values = list(values)
        self.queue = []

    def next(self):
        if not self.queue:
            self.queue = self.values[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def corpus_lines(name):
    """Raw sentence lines of a packaged corpus, comments stripped."""
    text = (files("finarith") / "corpora" / name).read_text(encoding="utf-8")
    return [line.split("#", 1)[0].strip() for line in text.splitlines() if line.split("#", 1)[0].strip()]


class Corpora:
    """Packaged corpora, loaded once at set-up through the library."""

    def __init__(self):
        self.induction = load_packaged_formulas("induction20.fml")
        self.schema_pairs = load_packaged_pairs("schema_instances.fml")
        self.translation = load_packaged_formulas("translation.fml")
        self.translation_text = corpus_lines("translation.fml")


# --- random first-order sentences (the benchmark's own syntax trees) ---

def random_term(rng, scope, depth=1):
    if depth == 0 or rng.random() < 0.6:
        leaves = list(scope) * 2 + ["0", "1", "N"]
        leaf = rng.choice(leaves)
        return ("var", leaf) if leaf in scope else (leaf,)
    op = rng.choice(("+", "*", "S"))
    if op == "S":
        return ("S", random_term(rng, scope, depth - 1))
    return (op, random_term(rng, scope, depth - 1), random_term(rng, scope, depth - 1))


def random_atom(rng, scope, kinds=("=", "<", "=", "<", "Def", "Plus", "Times")):
    kind = rng.choice(kinds)
    arity = {"Def": 1, "Plus": 3, "Times": 3}.get(kind, 2)
    return (kind, *(random_term(rng, scope) for _ in range(arity)))


def random_matrix(rng, scope, atoms):
    if atoms == 1:
        atom = random_atom(rng, scope)
        return ("!", atom) if rng.random() < 0.25 else atom
    left = rng.randint(1, atoms - 1)
    conn = rng.choice(("&", "|", "->"))
    return (conn, random_matrix(rng, scope, left), random_matrix(rng, scope, atoms - left))


def random_sentence(rng, depth):
    """A closed sentence with `depth` nested quantifiers over x, y, z.

    Mostly universal prefixes over an implication whose antecedent is an
    equation or graph atom, which seldom holds: evaluation then visits
    most assignments instead of stopping at the first one."""
    names = ("x", "y", "z")[:depth]
    premise = random_atom(rng, names, ("=", "Plus", "Times"))
    f = ("->", premise, random_matrix(rng, names, rng.randint(1, 2)))
    for i in reversed(range(depth)):
        bound = random_term(rng, names[:i]) if rng.random() < 0.2 else None
        f = ("A" if rng.random() < 0.8 else "E", names[i], bound, f)
    return f


# --- job makers: (rng, cyclers, ctx) -> job parameters ---

def _lift(rng, cyc, ctx):
    return {"n": rng.randint(9, 400), "ops_seed": rng.getrandbits(32)}


def _tower(rng, cyc, ctx):
    return {"n": 12, "stages": 3, "ops_seed": rng.getrandbits(32)}


def _unique_sentence(rng, ctx, depth):
    while True:
        text = oracles.show(random_sentence(rng, depth))
        if text not in ctx.seen:
            ctx.seen.add(text)
            return text


def _sentence(rng, cyc, ctx):
    if cyc("sentence_source", ("packaged", "random")) == "packaged":
        text = cyc("packaged", ctx.corpora.translation_text + [PRIME_ABOVE])
        top = 30
    else:
        depth = cyc("depth", (2, 3))
        text = _unique_sentence(rng, ctx, depth)
        top = 30 if depth == 2 else 16  # bounds the (h + 1)**3 assignments visited
    if cyc("model", ("trunc", "trunc", "subset")) == "trunc":
        return {"text": text, "trunc": rng.randint(8, top)}
    return {"text": text, "subset": sorted(rng.sample(range(41), rng.randint(8, 16)))}


def _hot_sentence(rng, cyc, ctx):
    # One job repeated often enough to hold p50: the same sentence on the
    # same model, so every run's median is the time of one fixed job.
    return {"text": PRIME_ABOVE, "trunc": HOT_TRUNC}


def _axioms(rng, cyc, ctx):
    # The middle height recurs so that p90, which falls among these jobs,
    # sits inside one cluster of equal-cost jobs.
    return {"n": cyc("axioms_n", (12, 30, 50, 70, 90, 90, 90, 110, 130, 150))}


def _trace(rng, cyc, ctx):
    return {"text": _unique_sentence(rng, ctx, 2), "trunc": rng.randint(8, 30)}


def _dot3_linear(rng, cyc, ctx):
    h, budget = cyc("dot3", [(h, b) for h in range(2, 7) for b in range(50, 200, 25)])
    return {"system": "aristotelian", "h": h, "budget": budget + rng.randrange(25)}


def _dot3_subsets(rng, cyc, ctx):
    return {"system": "subsets", "h": 1}


def _schema(rng, cyc, ctx):
    system = cyc("schema_system", ("fork", "subsets", "aristotelian"))
    if system == "fork":
        return {"system": "fork"}
    if system == "subsets":
        return {"system": "subsets", "h": 2}
    return {"system": "aristotelian", "h": cyc("schema_h", range(2, 7))}


def _frame(rng, cyc, ctx):
    return {"h": cyc("frame_h", (3, 4, 5)), "order_seed": rng.getrandbits(32)}


def _validate(rng, cyc, ctx):
    return {}


def _theorem(rng, cyc, ctx):
    # Aristotelian 6 recurs, with as many cheaper systems as dearer ones,
    # so that p90, the median of these jobs, sits inside one cluster of
    # equal-cost jobs.
    grid = [("aristotelian", h) for h in (4, 6, 6, 6, 7, 8)] + [("subsets", h) for h in (2, 3, 4)]
    system, h = cyc("theorem", grid)
    return {"system": system, "h": h}


def _modal_eval(rng, cyc, ctx):
    return {"h": cyc("modal_eval_h", (7, 8))}


def _modal_cli(rng, cyc, ctx):
    h = rng.randint(4, 12)
    return {"h": h, "world": rng.randint(1, h), "k": rng.randint(1, h + 2)}


# --- library calls (timed) ---

def digit_batch(api, model, batch):
    ops = api.ops(model)
    element = ops["element"]
    out = []
    for op, x, y in batch:
        a = element(x)
        out.append(ops[op](a) if op == "succ" else ops[op](a, element(y)))
    return out


def run_lift(api, job, batch):
    model = api.build_plus_model(api.make_truncation(job["n"]), width=WIDTH)
    return model, digit_batch(api, model, batch)


def run_tower(api, job, inputs):
    batch, pairs = inputs
    tower = api.build_tower(api.make_truncation(job["n"]), job["stages"], width=WIDTH)
    top = tower.stages[-1]
    limits = [api.limit_eval(tower, op, x, y) for op, x, y in pairs]
    return tower, digit_batch(api, top, batch), limits


def _model(api, job):
    if "trunc" in job:
        return api.make_truncation(job["trunc"])
    return api.make_subset_world(job["subset"])


def run_sentence(api, job, _inputs):
    return api.eval_formula(_model(api, job), api.parse_formula(job["text"]), {})


def run_axioms(api, job, corpora):
    return api.check_fa_axioms(api.make_truncation(job["n"]), corpora.induction)


def run_trace(api, job, _inputs):
    out = io.StringIO()
    argv = ["--format", "json", "eval", "--trunc", str(job["trunc"]), "--trace", job["text"]]
    return api.cli("cli.eval_trace", argv, out), out.getvalue()


def _system(api, job):
    if job["system"] == "fork":
        return api.fork_system()
    if job["system"] == "subsets":
        return api.arbitrary_set_system(job["h"])
    return api.aristotelian_system(job["h"])


def run_dot3(api, job, _inputs):
    system = _system(api, job)
    if "budget" in job:
        return api.search_dot3_counterexample(system, generator_budget=job["budget"])
    return api.search_dot3_counterexample(system)


def run_schema(api, job, corpora):
    system = _system(api, job)
    return {
        name: api.check_schema(system, finarith.SCHEMAS[name], corpora.schema_pairs)
        for name in SCHEMA_NAMES
    }


def run_frame(api, job, inputs):
    subsets, ids, edges = inputs
    worlds = [api.make_subset_world(s) for s in subsets]
    return api.frame_properties(api.load_system(worlds, ids, edges))


def run_validate(api, job, _inputs):
    out = io.StringIO()
    argv = ["--format", "json", "validate", "--subsets", "1", "--schema", "dot3", "--search"]
    return api.cli("cli.validate_search", argv, out), out.getvalue()


def run_theorem(api, job, corpora):
    return api.check_translation_theorem(_system(api, job), corpora.translation)


def run_modal_eval(api, job, _inputs):
    system = api.aristotelian_system(job["h"])
    out = []
    for text in (SUCC_POSSIBLE, SUM_PRODUCT):
        f = api.parse_formula(text)
        out.append([api.eval_modal(system, wid, f) for wid in system.ids])
    return out


def modal_cli_text(k):
    return "dia E x. x = " + " + ".join(["1"] * k)


def run_modal_cli(api, job, _inputs):
    out = io.StringIO()
    argv = [
        "--format", "json", "modal-eval", "--aristotelian", str(job["h"]),
        "--world", str(job["world"]), modal_cli_text(job["k"]),
    ]
    return api.cli("cli.modal_eval", argv, out), out.getvalue()


# --- untimed preparation ---

def _random_batch(rng, size, count):
    return [(rng.choice(OP_KINDS), rng.randrange(size), rng.randrange(size)) for _ in range(count)]


def prepare_lift(job, ctx):
    size = math.isqrt(job["n"]) ** WIDTH
    return _random_batch(random.Random(job["ops_seed"]), size, LIFT_OPS)


def tower_heights(n, stages):
    heights = [n]
    for _ in range(stages):
        heights.append(math.isqrt(heights[-1]) ** WIDTH - 1)
    return heights


def prepare_tower(job, ctx):
    rng = random.Random(job["ops_seed"])
    top = tower_heights(job["n"], job["stages"])[-1]
    batch = _random_batch(rng, top + 1, TOWER_OPS)
    pairs = [
        (rng.choice(("plus", "times")), rng.randint(0, job["n"]), rng.randint(0, job["n"]))
        for _ in range(TOWER_LIMIT_PAIRS)
    ]
    return batch, pairs


def prepare_frame(job, ctx):
    frame = oracles.subsets_frame(job["h"])
    edges = [(i, j) for i, seen in enumerate(frame.access) for j in seen]
    random.Random(job["order_seed"]).shuffle(edges)
    return [sorted(w.dom) for w in frame.worlds], frame.ids, edges


def prepare_corpora(job, ctx):
    return ctx.corpora


def prepare_nothing(job, ctx):
    return None


# --- oracle checks (untimed): True when the verdict is right ---

def _digit_value(s, base):
    if len(s.idx) != WIDTH or not all(0 <= d < base for d in s.idx):
        return -1
    v = 0
    for d in s.idx:
        v = v * base + d
    return v


def _digits_ok(model, batch, results, base):
    size = base**WIDTH
    if model.size() != size:
        return False
    for (op, x, y), r in zip(batch, results, strict=True):
        if op == "less":
            if r is not (x < y):
                return False
            continue
        want = x + 1 if op == "succ" else x + y if op == "plus" else x * y
        if want >= size:
            if r is not None:
                return False
        elif r is None or _digit_value(r, base) != want:
            return False
    return True


def check_lift(job, batch, out, ctx):
    model, results = out
    return _digits_ok(model, batch, results, math.isqrt(job["n"]))


def check_tower(job, inputs, out, ctx):
    batch, pairs = inputs
    tower, results, limits = out
    heights = tower_heights(job["n"], job["stages"])
    if tower.heights != heights:
        return False
    if not _digits_ok(tower.stages[-1], batch, results, math.isqrt(heights[-2])):
        return False
    for (op, x, y), lim in zip(pairs, limits, strict=True):
        want = x + y if op == "plus" else x * y
        stage = next(i for i, h in enumerate(heights) if want <= h)
        if (lim.value, lim.stage) != (want, stage):
            return False
    return True


def _world(job):
    if "trunc" in job:
        return oracles.truncation(job["trunc"])
    return oracles.subset_world(job["subset"])


def check_sentence(job, _inputs, out, ctx):
    key = (job["text"], job.get("trunc"), tuple(job.get("subset", ())))
    want = ctx.sentence_cache.get(key)
    if want is None:
        want = oracles.fo_holds(oracles.parse(job["text"]), _world(job))
        ctx.sentence_cache[key] = want
    return out is want


def check_axioms(job, _inputs, report, ctx):
    # Every truncation is an FA model, and (n + 1)**2 <= 10**6 keeps every
    # group exhaustive at the default budget.
    groups = report.groups.values()
    return report.passed is True and all(g.passed and g.mode == "exhaustive" for g in groups)


def _cli_record(out, code):
    got_code, text = out
    if got_code != code:
        return None
    record = json.loads(text)
    record.pop("timings")
    return record


def check_trace(job, _inputs, out, ctx):
    record = _cli_record(out, 0)
    f = oracles.parse(job["text"])
    world = _world(job)
    want = {
        "formula": finarith.print_formula(finarith.parse_formula(job["text"])),
        "model": "trunc",
        "n": job["trunc"],
        "trace": oracles.quantifier_trace(f, world),
        "value": oracles.fo_holds(f, world),
    }
    return record is not None and record["command"] == "eval" and record["results"] == [want]


def _frame_of(job):
    if job["system"] == "fork":
        return oracles.fork_frame()
    if job["system"] == "subsets":
        return oracles.subsets_frame(job["h"])
    return oracles.aristotelian_frame(job["h"])


def _witness_ok(name, hit, frame):
    psi = None if hit.psi is None else finarith.print_formula(hit.psi)
    return oracles.falsifies(name, finarith.print_formula(hit.phi), psi, frame, hit.world_id)


def check_dot3(job, _inputs, witness, ctx):
    frame = _frame_of(job)
    if not oracles.schema_may_fail("Dot3", frame):
        return witness is None
    # The generated pool holds a Dot3 failure for every non-linear system
    # used here, within the search's default budget.
    return witness is not None and _witness_ok("Dot3", witness, frame)


def check_schema(job, _inputs, hits, ctx):
    frame = _frame_of(job)
    for name in SCHEMA_NAMES:
        if hits[name] and not oracles.schema_may_fail(name, frame):
            return False
        if not all(_witness_ok(name, hit, frame) for hit in hits[name]):
            return False
    return True


def check_frame(job, _inputs, report, ctx):
    directed, linear = oracles.frame_class(oracles.subsets_frame(job["h"]))
    want = "linear/S4.3" if linear else "directed/S4.2" if directed else "preorder/S4"
    return (
        report.reflexive and report.transitive
        and (report.directed, report.linear, report.classification) == (directed, linear, want)
    )


def check_validate(job, _inputs, out, ctx):
    record = _cli_record(out, 1)
    if ctx.validate_witness is None:
        frame = oracles.subsets_frame(1)
        # 10**6 is the budget `fa` passes by default.
        hit = finarith.search_dot3_counterexample(finarith.arbitrary_set_system(1), generator_budget=10**6)
        if hit is None or not _witness_ok("Dot3", hit, frame):
            return False
        ctx.validate_witness = {
            "phi": finarith.print_formula(hit.phi),
            "psi": finarith.print_formula(hit.psi),
            "world": hit.world_id,
        }
    want = {
        "counterexamples": [ctx.validate_witness],
        "height": 1,
        "schema": "Dot3",
        "searched": True,
        "system": "subsets",
    }
    return record is not None and record["command"] == "validate" and record["results"] == [want]


def check_theorem(job, _inputs, report, ctx):
    # Every system here converges to its limit and the packaged sentences
    # are persistent, so the translation theorem holds for each of them.
    return report.passed is True and not report.violations and not report.skipped and (
        len(report.results) == len(ctx.corpora.translation)
    )


def check_modal_eval(job, _inputs, out, ctx):
    h = job["h"]
    want = [
        [oracles.succ_possible(n, h) for n in range(1, h + 1)],
        [oracles.sum_product_possible(n, h) for n in range(1, h + 1)],
    ]
    return out == want


def check_modal_cli(job, _inputs, out, ctx):
    record = _cli_record(out, 0)
    h, world, k = job["h"], job["world"], job["k"]
    text = modal_cli_text(k)
    want = {
        "formula": finarith.print_formula(finarith.parse_formula(text)),
        "height": h,
        "system": "aristotelian",
        "value": k <= h,  # some world at or above `world` contains k
        "world": str(world),
    }
    if k <= h:
        want["witness_world"] = str(max(world, k))
    return record is not None and record["command"] == "modal-eval" and record["results"] == [want]


class Kind(NamedTuple):
    prepare: Callable  # (job, ctx) -> inputs, untimed
    run: Callable  # (api, job, inputs) -> verdict, timed
    check: Callable  # (job, inputs, verdict, ctx) -> bool, untimed


KINDS = {
    "lift": Kind(prepare_lift, run_lift, check_lift),
    "tower": Kind(prepare_tower, run_tower, check_tower),
    "sentence": Kind(prepare_nothing, run_sentence, check_sentence),
    "axioms": Kind(prepare_corpora, run_axioms, check_axioms),
    "trace": Kind(prepare_nothing, run_trace, check_trace),
    "dot3": Kind(prepare_nothing, run_dot3, check_dot3),
    "schema": Kind(prepare_corpora, run_schema, check_schema),
    "frame": Kind(prepare_frame, run_frame, check_frame),
    "validate": Kind(prepare_nothing, run_validate, check_validate),
    "theorem": Kind(prepare_corpora, run_theorem, check_theorem),
    "modal_eval": Kind(prepare_nothing, run_modal_eval, check_modal_eval),
    "cli": Kind(prepare_nothing, run_modal_cli, check_modal_cli),
}


class Workload:
    def __init__(self, name, why, block, rate):
        self.name = name
        self.why = why
        self.block = block  # [(kind, job maker, count)]
        self.rate = rate  # jobs/s, about twice the rate measured when sizing

    def kinds(self):
        return sorted({kind for kind, _, _ in self.block})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "digits",
            "lifted digit arithmetic on small warm tables (lift) and cascading misses at tower stage 3",
            [("lift", _lift, 8), ("tower", _tower, 2)],
            rate=100,
        ),
        Workload(
            "first_order",
            "parsing and first-order evaluation, axiom checks and fa eval --trace; no digit or modal code",
            [
                ("sentence", _sentence, 7),
                ("sentence", _hot_sentence, 6),
                ("trace", _trace, 3),
                ("axioms", _axioms, 4),
            ],
            rate=80,
        ),
        Workload(
            "modal_search",
            "many small closed modal formulas over small worlds: Dot3 search, schema checks, frames",
            [
                ("frame", _frame, 48),
                ("dot3", _dot3_linear, 16),
                ("dot3", _dot3_subsets, 1),
                ("schema", _schema, 14),
                ("validate", _validate, 1),
            ],
            rate=30,
        ),
        Workload(
            "translation",
            "modal evaluation whose quantifiers range over each world's domain: translation theorem, modal-eval",
            [("theorem", _theorem, 4), ("modal_eval", _modal_eval, 8), ("cli", _modal_cli, 8)],
            rate=40,
        ),
    )
}


class Context:
    """Per-run state: set-up data for the jobs and the oracles' caches."""

    def __init__(self, corpora):
        self.corpora = corpora
        self.seen = set()  # texts of generated sentences, kept unique
        self.sentence_cache = {}
        self.validate_witness = None


class JobStream:
    """The workload's seeded job blocks, in order: the same (workload,
    seed) always gives the same blocks, and each call extends the stream."""

    def __init__(self, workload, seed, ctx):
        self.workload = workload
        self.seed = seed
        self.ctx = ctx
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.cyclers = {}
        self.next_id = 0

    def cyc(self, key, values):
        if key not in self.cyclers:
            rng = random.Random(f"{self.workload.name}/{self.seed}/{key}")
            self.cyclers[key] = Cycler(rng, values)
        return self.cyclers[key].next()

    def block(self):
        block = [
            {"kind": kind, **make(self.rng, self.cyc, self.ctx)}
            for kind, make, count in self.workload.block
            for _ in range(count)
        ]
        self.rng.shuffle(block)
        for job in block:
            job["id"] = self.next_id
            self.next_id += 1
        return block

