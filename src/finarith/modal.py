"""Finite potentialist systems and Kripke semantics for the modal operators.

A system is a finite family of partial structures (worlds) with a reflexive,
transitive accessibility relation along which domains and operation graphs
grow.  dia phi holds at a world when phi holds at some accessible world;
box phi when it holds at all of them.  Quantifiers range over the current
world; individuals are rigid, so a witness found here still exists in every
larger world.  Everything but dia/box is evaluated by the first-order
recursion of ``logic``.  dia/box follow the rule of E/A there, over
accessible worlds instead of elements: logic._decide hands each dia/box
node to the system, which returns (truth, deciding world) and memoizes the
bodies of its dia/box nodes per world.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from .core import SubsetWorld, Truncation
from .errors import DomainError, EvalError
from .logic import (
    And, Const0, Const1, Defined, Eq, Exists, Forall, Implies, Lt,
    Necessarily, Not, Or, Possibly, _eval, _rebuild, contains_constN,
    eval_formula, free_variables, is_first_order, print_formula,
)


class PotentialistSystem:
    """Worlds, accessibility, an optional designated limit structure, and
    Kripke evaluation over them.

    ``access[i]`` is the frozenset of indices reachable from world i
    (including i itself once validated reflexive).  Worlds are addressed by
    index or by their string id.  Atoms, connectives and quantifiers run
    through the first-order recursion of ``logic`` at the current world;
    the system decides only dia/box.  Its ``_scan``, bound to a world, is
    the modal callback of that recursion: it scans the accessible worlds
    in index order and returns (truth, deciding world), as logic._decide
    does for a quantifier and its range.  For each dia/box node it memoizes
    the truth of the node's body at each accessible world, keyed by (body,
    world, restriction of the assignment to the body's free variables).
    """

    def __init__(self, worlds, ids, access, limit=None, validate=True):
        if len(worlds) != len(ids):
            raise ValueError("one id per world required")
        self.worlds = list(worlds)
        self.ids = list(ids)
        self._id_index = {wid: i for i, wid in enumerate(self.ids)}
        if len(self._id_index) != len(self.ids):
            raise ValueError("world ids must be distinct")
        self.access = [frozenset(s) for s in access]
        self.limit = limit
        if validate:
            self.validate()
        self._access = [tuple(sorted(s)) for s in self.access]
        self._memo = {}
        self._fv = {}

    def resolve(self, world):
        """Accept an index or an id; return the index."""
        if isinstance(world, int) and not isinstance(world, bool):
            if not 0 <= world < len(self.worlds):
                raise DomainError(f"world index {world} out of range")
            return world
        i = self._id_index.get(world)
        if i is None:
            raise DomainError(f"unknown world id {world!r}")
        return i

    def validate(self):
        n = len(self.worlds)
        for i, s in enumerate(self.access):
            if any(not 0 <= j < n for j in s):
                raise ValueError(f"access set of world {self.ids[i]} out of range")
            if i not in s:
                raise ValueError(f"accessibility is not reflexive at {self.ids[i]}")
            for j in s:
                if not self.access[j] <= s:
                    raise ValueError(
                        f"accessibility is not transitive at {self.ids[i]} -> {self.ids[j]}"
                    )
        for i, s in enumerate(self.access):
            u = self.worlds[i]
            for j in s:
                if j == i:
                    continue
                v = self.worlds[j]
                for x in u:
                    if x not in v:
                        raise ValueError(
                            f"world {self.ids[j]} does not extend {self.ids[i]}: lost {x!r}"
                        )
                for a in u:
                    for b in u:
                        s_u = u.plus(a, b)
                        if s_u is not None and v.plus(a, b) != s_u:
                            raise ValueError(
                                f"plus graph not preserved from {self.ids[i]} to {self.ids[j]}"
                            )
                        p_u = u.times(a, b)
                        if p_u is not None and v.times(a, b) != p_u:
                            raise ValueError(
                                f"times graph not preserved from {self.ids[i]} to {self.ids[j]}"
                            )
        if self.limit is not None:
            self._validate_convergence()

    def _validate_convergence(self):
        lim = self.limit
        for i, u in enumerate(self.worlds):
            for x in u:
                if x not in lim:
                    raise ValueError(
                        f"world {self.ids[i]} is not included in the limit structure"
                    )
            for w in lim:
                if not any(w in self.worlds[j] for j in self.access[i]):
                    raise ValueError(
                        f"no world accessible from {self.ids[i]} accommodates {w!r}"
                    )

    def decide(self, world, f, assignment=None):
        """(truth of f at world, deciding world).  For a dia/box f the
        deciding world is the index of the first accessible world where the
        body holds (dia) or fails (box); otherwise, and when no such world
        exists, it is None.  Bodies of dia/box nodes are memoized per world
        in the system, so repeated calls share the work."""
        i = self.resolve(world)
        a = dict(assignment) if assignment else {}
        try:
            for v in self._free(f):
                if v not in a:
                    raise EvalError(f"unassigned variable {v!r}")
            if isinstance(f, (Possibly, Necessarily)):
                return self._scan(i, f, a)
            return _eval(self.worlds[i], f, a, partial(self._scan, i)), None
        except RecursionError as exc:
            raise EvalError("formula is nested too deeply") from exc

    def _free(self, f):
        r = self._fv.get(f)
        if r is None:
            r = tuple(sorted(free_variables(f)))
            self._fv[f] = r
        return r

    def _scan(self, i, f, assignment):
        body = f.body
        vals = tuple(assignment[v] for v in self._free(body))
        want = isinstance(f, Possibly)  # dia stops at a true body, box at a false one
        for j in self._access[i]:
            key = (body, j, vals)
            hit = self._memo.get(key)
            if hit is None:
                world = self.worlds[j]
                hit = self._memo[key] = _eval(world, body, assignment, partial(self._scan, j))
            if hit == want:
                return want, j
        return not want, None

    def __repr__(self):
        return f"PotentialistSystem({len(self.worlds)} worlds, limit={self.limit!r})"


def aristotelian_system(h):
    """Initial-segment potentialism: worlds are the truncations at 1..h,
    accessible along end-extension (numeric <=), converging to the
    truncation at h."""
    if h < 1:
        raise ValueError("height must be at least 1")
    worlds = [Truncation(n) for n in range(1, h + 1)]
    ids = [str(n) for n in range(1, h + 1)]
    access = [frozenset(range(i, h)) for i in range(h)]
    return PotentialistSystem(
        worlds, ids, access, limit=Truncation(h),
        validate=False,  # guaranteed by construction
    )


def _subset_id(elems):
    return "empty" if not elems else ",".join(str(x) for x in elems)


# Largest number of worlds arbitrary_set_system builds (heights up to 11).
_WORLD_BUDGET = 4096


def arbitrary_set_system(h):
    """Arbitrary-set potentialism: one world per subset of {0, ..., h},
    ordered by inclusion, converging to the truncation at h.  The empty
    world is included; its id is "empty"."""
    if h < 0:
        raise ValueError("height must be at least 0")
    count = 1 << (h + 1)
    if count > _WORLD_BUDGET:
        raise DomainError(
            f"{count} worlds exceed the budget of {_WORLD_BUDGET}"
        )
    subsets = []
    for mask in range(count):
        subsets.append(tuple(x for x in range(h + 1) if mask >> x & 1))
    worlds = [SubsetWorld(s) for s in subsets]
    ids = [_subset_id(s) for s in subsets]
    access = [frozenset(j for j in range(count) if mask & j == mask) for mask in range(count)]
    return PotentialistSystem(
        worlds, ids, access, limit=Truncation(h) if h >= 1 else SubsetWorld(range(h + 1)),
        validate=False,
    )


def fork_system():
    """A three-world fork: a root extending into two incomparable leaves.
    Reflexive-transitive but neither directed nor linear; classifies as S4
    only."""
    worlds = [SubsetWorld({0}), SubsetWorld({0, 1}), SubsetWorld({0, 2})]
    ids = ["root", "left", "right"]
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]
    return load_system(worlds, ids, pairs)


def load_system(worlds, ids, access_pairs, limit=None):
    """Build a system from an explicit edge list; the preorder, extension,
    and (when a limit is given) convergence conditions are validated."""
    n = len(worlds)
    access = [set() for _ in range(n)]
    for i, j in access_pairs:
        access[i].add(j)
    return PotentialistSystem(worlds, ids, access, limit=limit, validate=True)


def eval_modal(sys, world, f, assignment=None):
    """phi at a world of the system, treating the system as the entire
    universe of worlds."""
    return sys.decide(world, f, assignment)[0]


# --- potentialist translation ---

def potentialist_translation(f):
    """Replace every unbounded E with dia E and every unbounded A with
    box A.  Bounded quantifiers already have a local range and are left in
    place (their bodies are still translated)."""
    match f:
        case Possibly(_) | Necessarily(_):
            raise EvalError("potentialist translation applies to first-order formulas only")
        case Forall(_, None, _):
            return Necessarily(_rebuild(f, potentialist_translation))
        case Exists(_, None, _):
            return Possibly(_rebuild(f, potentialist_translation))
    return _rebuild(f, potentialist_translation)


@dataclass
class TranslationReport:
    passed: bool
    results: list  # (formula text, limit truth, {world id: modal truth})
    violations: list
    skipped: list  # formulas containing the constant N (not rigid)


def check_translation_theorem(sys, corpus):
    """Compare limit-structure truth of each closed sentence with the truth
    of its potentialist translation at every world.  Requires a convergent
    system; sentences mentioning N are skipped (N is read de dicto per
    world, so it is not a rigid designator)."""
    if sys.limit is None:
        raise EvalError("translation theorem requires a system with a limit structure")
    try:
        sys._validate_convergence()
    except ValueError as exc:
        raise EvalError(f"translation theorem requires the convergence condition: {exc}") from exc

    corpus = list(corpus)  # checked, then evaluated: read it once
    for psi in corpus:
        if not is_first_order(psi):
            raise EvalError(f"corpus sentence is not first-order: {print_formula(psi)}")
        if free_variables(psi):
            raise EvalError(f"corpus sentence is not closed: {print_formula(psi)}")

    results = []
    violations = []
    skipped = []
    for psi in corpus:
        text = print_formula(psi)
        if contains_constN(psi):
            skipped.append(text)
            continue
        limit_truth = eval_formula(sys.limit, psi, {})
        translated = potentialist_translation(psi)
        per_world = {}
        for i, wid in enumerate(sys.ids):
            t = sys.decide(i, translated)[0]
            per_world[wid] = t
            if t != limit_truth:
                violations.append(
                    f"{text}: limit says {limit_truth}, world {wid} says {t}"
                )
        results.append((text, limit_truth, per_world))
    return TranslationReport(
        passed=not violations, results=results, violations=violations, skipped=skipped
    )


# --- frame classification ---

@dataclass
class FrameReport:
    reflexive: bool
    transitive: bool
    directed: bool
    linear: bool
    classification: str


def frame_properties(sys):
    """Decide the frame class of the accessibility relation and name the
    strongest matching modal logic."""
    access = sys.access
    n = len(access)
    reflexive = all(i in access[i] for i in range(n))
    transitive = all(access[j] <= access[i] for i in range(n) for j in access[i])
    directed = True
    linear = True
    for i in range(n):
        for v, w in itertools.combinations(access[i], 2):
            if not (access[v] & access[w]):
                directed = False
            if v not in access[w] and w not in access[v]:
                linear = False
        if not directed and not linear:
            break
    if reflexive and transitive and linear:
        classification = "linear/S4.3"
    elif reflexive and transitive and directed:
        classification = "directed/S4.2"
    elif reflexive and transitive:
        classification = "preorder/S4"
    else:
        classification = "not-a-preorder"
    return FrameReport(
        reflexive=reflexive,
        transitive=transitive,
        directed=directed,
        linear=linear,
        classification=classification,
    )


# --- schemas ---

@dataclass(frozen=True)
class ModalSchema:
    name: str
    arity: int  # number of metavariables used

    def instantiate(self, phi, psi=None):
        if self.arity == 2 and psi is None:
            raise EvalError(f"schema {self.name} needs two formulas")
        match self.name:
            case "K":
                return Implies(
                    Necessarily(Implies(phi, psi)),
                    Implies(Necessarily(phi), Necessarily(psi)),
                )
            case "T":
                return Implies(Necessarily(phi), phi)
            case "Four":
                return Implies(Necessarily(phi), Necessarily(Necessarily(phi)))
            case "Dot2":
                return Implies(Possibly(Necessarily(phi)), Necessarily(Possibly(phi)))
            case "Dot3":
                return Implies(
                    And(Possibly(phi), Possibly(psi)),
                    Or(
                        Possibly(And(phi, Possibly(psi))),
                        Possibly(And(psi, Possibly(phi))),
                    ),
                )
        raise EvalError(f"unknown schema {self.name!r}")


SCHEMAS = {
    "K": ModalSchema("K", 2),
    "T": ModalSchema("T", 1),
    "Four": ModalSchema("Four", 1),
    "Dot2": ModalSchema("Dot2", 1),
    "Dot3": ModalSchema("Dot3", 2),
}


def schema_by_name(name):
    key = {k.lower(): k for k in SCHEMAS}.get(name.lower())
    if key is None:
        raise EvalError(f"unknown schema {name!r}; choose from {sorted(SCHEMAS)}")
    return SCHEMAS[key]


@dataclass
class SchemaCounterexample:
    world_id: str
    phi: object
    psi: object


def _counterexamples(sys, schema, instances):
    """Yield a SchemaCounterexample for each (phi, psi) pair, in order, and
    each world, in index order, where the pair's schema instance fails.
    One-variable schemas ignore psi and report it as None."""
    for phi, psi in instances:
        if schema.arity == 1:
            psi = None
        inst = schema.instantiate(phi, psi)
        for i, wid in enumerate(sys.ids):
            if not sys.decide(i, inst)[0]:
                yield SchemaCounterexample(wid, phi, psi)


def check_schema(sys, schema, instances):
    """Evaluate each instantiated schema at every world; return all
    failures.  Instances are (phi, psi) pairs of closed formulas; psi is
    ignored by one-variable schemas."""
    instances = list(instances)  # checked, then evaluated: read it once
    for g in itertools.chain.from_iterable(instances):
        if g is not None and free_variables(g):
            raise EvalError(f"schema instances must be closed: {print_formula(g)}")
    return list(_counterexamples(sys, schema, instances))


# --- counterexample search ---

def _generated_formulas():
    """Deterministic closed-formula pool over the constants."""
    atoms = [
        Defined(Const0()),
        Defined(Const1()),
        Lt(Const0(), Const1()),
        Eq(Const0(), Const0()),
        Eq(Const1(), Const1()),
    ]
    level2 = atoms + [Not(a) for a in atoms]
    out = list(level2)
    for a, b in itertools.permutations(level2, 2):
        out.append(And(a, b))
    for a, b in itertools.combinations(level2, 2):
        out.append(Or(a, b))
    return out


def _diagonal_pairs(pool):
    """Pairs of distinct pool formulas in diagonal order: pairs with small
    combined index come first, so a witness built from two mid-pool
    formulas is reached early."""
    n = len(pool)
    for s in range(2 * n - 1):
        for a in range(max(0, s - n + 1), min(s + 1, n)):
            if a != s - a:
                yield pool[a], pool[s - a]


def search_dot3_counterexample(sys, generator_budget=5000):
    """Return the first (world, phi, psi) falsifying the Dot3 schema, with
    phi and psi distinct formulas from a fixed pool (atoms over 0 and 1,
    their negations, and conjunctions and disjunctions of two of those), or
    None when the pool or the budget of pairs is exhausted."""
    if generator_budget < 0:
        raise ValueError("generator budget must be at least 0")
    pairs = itertools.islice(_diagonal_pairs(_generated_formulas()), generator_budget)
    return next(_counterexamples(sys, SCHEMAS["Dot3"], pairs), None)
