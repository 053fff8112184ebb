"""The ``fa`` command-line front end.

Each verb builds the requested models or systems, runs the corresponding
library checks, and emits a report either as human-readable text or as a
single JSON record {command, params, results, timings} with sorted keys.
Exit codes: 0 all checks pass / value printed, 1 a check failed or a
counterexample was found, 2 usage, configuration or resource error, such
as input nested too deeply.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import corpus as corpus_mod
from .core import check_fa_axioms, largest_square_base, make_subset_world, make_truncation
from .errors import FinarithError
from .interp import build_plus_model, build_tower, verify_biinterpretation
from .logic import (
    Exists, Forall, Possibly, _decide, eval_formula, free_variables,
    parse_formula, print_formula,
)
from .modal import (
    aristotelian_system, arbitrary_set_system, check_schema,
    check_translation_theorem, frame_properties, fork_system,
    potentialist_translation, schema_by_name, search_dot3_counterexample,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fa",
        description="Workbench for arithmetic with a largest number.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=10**6)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("truncate", help="build a truncation model and summarize it")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("axioms", help="run the FA axiom checks on a truncation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--corpus", help="induction corpus file (default: packaged induction20)")

    p = sub.add_parser("lift", help="build the taller digit-string model and verify it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--width", type=int, default=5)

    p = sub.add_parser("tower", help="iterate the lifting and report stage heights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--width", type=int, default=5)

    p = sub.add_parser("eval", help="evaluate a first-order formula in a model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--trunc", type=int)
    group.add_argument("--subset")
    p.add_argument("--trace", action="store_true", help="report quantifier witnesses")
    p.add_argument("formula")

    p = sub.add_parser("modal-eval", help="evaluate a modal formula at a world")
    _add_system_args(p)
    p.add_argument("--world", required=True)
    p.add_argument("formula")

    p = sub.add_parser("frame", help="classify a system's accessibility frame")
    _add_system_args(p)

    p = sub.add_parser("validate", help="check a modal schema over a system")
    _add_system_args(p)
    p.add_argument("--schema", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--corpus", help="instance-pair corpus file")
    group.add_argument("--search", action="store_true", help="generated-instance search (Dot3)")

    p = sub.add_parser("translate", help="print the potentialist translation")
    p.add_argument("formula")

    p = sub.add_parser(
        "translation-theorem",
        help="compare limit truth with translated truth at every world",
    )
    _add_system_args(p)
    p.add_argument("--corpus", help="sentence corpus file (default: packaged translation corpus)")

    return parser


def _add_system_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--aristotelian", type=int, metavar="H")
    group.add_argument("--subsets", type=int, metavar="H")
    group.add_argument("--fork", action="store_true")


def _make_system(args):
    if args.aristotelian is not None:
        return aristotelian_system(args.aristotelian), {"system": "aristotelian", "height": args.aristotelian}
    if args.subsets is not None:
        return arbitrary_set_system(args.subsets), {"system": "subsets", "height": args.subsets}
    return fork_system(), {"system": "fork"}


def _parse_subset(text):
    if text.strip() in ("", "empty"):
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise FinarithError(f"bad subset spec {text!r}: {exc}") from exc


def _load_corpus(path, default_name):
    if path:
        return corpus_mod.load_formulas(path)
    return corpus_mod.load_packaged_formulas(default_name)


# --- verb handlers: each returns (exit_code, results) ---

def _cmd_truncate(args):
    m = make_truncation(args.n)
    return 0, [{
        "n": args.n,
        "size": m.size(),
        "largest": m.largest,
        "largest_square_base": largest_square_base(m),
    }]


def _cmd_axioms(args):
    m = make_truncation(args.n)
    corpus = _load_corpus(args.corpus, "induction20.fml")
    report = check_fa_axioms(m, corpus, budget=args.budget, seed=args.seed)
    results = [
        {"group": g.name, "passed": g.passed, "mode": g.mode, "failures": g.failures}
        for g in report.groups.values()
    ]
    results.append({"passed": report.passed})
    return (0 if report.passed else 1), results


def _cmd_lift(args):
    m = make_truncation(args.n)
    mp = build_plus_model(m, width=args.width)
    report = verify_biinterpretation(m, mp, budget=args.budget, seed=args.seed)
    return (0 if report.passed else 1), [{
        "base": mp.base_value,
        "width": args.width,
        "height": mp.valuation(mp.largest),
        "checks": report.checks,
        "failures": report.failures,
    }]


def _cmd_tower(args):
    m = make_truncation(args.n)
    tower = build_tower(m, args.stages, width=args.width)
    growth_ok = all(
        nxt >= cur * cur for cur, nxt in zip(tower.heights, tower.heights[1:])
    )
    return (0 if growth_ok else 1), [{
        "heights": tower.heights,
        "growth_ok": growth_ok,
    }]


def _parse_sentence(text):
    f = parse_formula(text)
    if free_variables(f):
        raise FinarithError(f"formula has free variables: {sorted(free_variables(f))}")
    return f


def _quantifier_trace(m, f):
    """(truth of the sentence f, its top-level chain of quantifier
    witnesses/counterexamples: at each level, the element that decided it).
    E has a witness iff it holds, A a counterexample iff it fails."""
    value = None
    steps = []
    assignment = {}
    while isinstance(f, (Forall, Exists)):
        truth, found = _decide(m, f, assignment, None)
        value = truth if value is None else value
        if found is None:
            break
        kind = "witness" if isinstance(f, Exists) else "counterexample"
        steps.append({"kind": kind, "var": f.var, "value": m.valuation(found)})
        assignment[f.var] = found
        f = f.body
    return (eval_formula(m, f, {}) if value is None else value), steps


def _cmd_eval(args):
    if args.trunc is not None:
        m = make_truncation(args.trunc)
        spec = {"model": "trunc", "n": args.trunc}
    else:
        m = make_subset_world(_parse_subset(args.subset))
        spec = {"model": "subset", "elements": sorted(m)}
    f = _parse_sentence(args.formula)
    result = {"formula": print_formula(f), **spec}
    if args.trace:
        result["value"], result["trace"] = _quantifier_trace(m, f)
    else:
        result["value"] = eval_formula(m, f, {})
    return 0, [result]


def _cmd_modal_eval(args):
    sys_, spec = _make_system(args)
    f = _parse_sentence(args.formula)
    value, decider = sys_.decide(args.world, f)
    result = {"formula": print_formula(f), "world": args.world, "value": value, **spec}
    if value and isinstance(f, Possibly):
        result["witness_world"] = sys_.ids[decider]
    return 0, [result]


def _cmd_frame(args):
    sys_, spec = _make_system(args)
    report = frame_properties(sys_)
    return 0, [{
        "reflexive": report.reflexive,
        "transitive": report.transitive,
        "directed": report.directed,
        "linear": report.linear,
        "classification": report.classification,
        **spec,
    }]


def _cmd_validate(args):
    sys_, spec = _make_system(args)
    schema = schema_by_name(args.schema)
    if args.search:
        if schema.name != "Dot3":
            raise FinarithError("--search is available for the Dot3 schema only")
        witness = search_dot3_counterexample(sys_, generator_budget=args.budget)
        hits = [] if witness is None else [witness]
    else:
        if args.corpus:
            instances = corpus_mod.load_pairs(args.corpus)
        else:
            instances = corpus_mod.load_packaged_pairs("schema_instances.fml")
        hits = check_schema(sys_, schema, instances)
    return (1 if hits else 0), [{
        "schema": schema.name,
        "searched": args.search,
        "counterexamples": [
            {
                "world": h.world_id,
                "phi": print_formula(h.phi),
                "psi": None if h.psi is None else print_formula(h.psi),
            }
            for h in hits
        ],
        **spec,
    }]


def _cmd_translate(args):
    f = parse_formula(args.formula)
    out = potentialist_translation(f)
    return 0, [{"input": print_formula(f), "output": print_formula(out)}]


def _cmd_translation_theorem(args):
    sys_, spec = _make_system(args)
    corpus = _load_corpus(args.corpus, "translation.fml")
    report = check_translation_theorem(sys_, corpus)
    results = [
        {"formula": text, "limit": limit_truth, "worlds": per_world}
        for text, limit_truth, per_world in report.results
    ]
    results.append({
        "passed": report.passed,
        "violations": report.violations,
        "skipped": report.skipped,
        **spec,
    })
    return (0 if report.passed else 1), results


_HANDLERS = {
    "truncate": _cmd_truncate,
    "axioms": _cmd_axioms,
    "lift": _cmd_lift,
    "tower": _cmd_tower,
    "eval": _cmd_eval,
    "modal-eval": _cmd_modal_eval,
    "frame": _cmd_frame,
    "validate": _cmd_validate,
    "translate": _cmd_translate,
    "translation-theorem": _cmd_translation_theorem,
}


def _render_text(report, out):
    print(f"== fa {report['command']} ==", file=out)
    for key, value in sorted(report["params"].items()):
        print(f"  {key}: {value}", file=out)
    for record in report["results"]:
        parts = []
        for key in sorted(record):
            parts.append(f"{key}={record[key]}")
        print("  " + "  ".join(parts), file=out)
    print(f"  elapsed: {report['timings']['total_s']:.3f}s", file=out)


def main(argv=None, out=None):
    out = sys.stdout if out is None else out
    parser = _build_parser()
    args = parser.parse_args(argv)
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "format") and v is not None and v is not False
    }
    started = time.perf_counter()
    try:
        code, results = _HANDLERS[args.command](args)
    except (FinarithError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "params": params,
        "results": results,
        "timings": {"total_s": round(time.perf_counter() - started, 6)},
    }
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2), file=out)
    else:
        _render_text(report, out)
    return code


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
