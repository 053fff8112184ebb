"""The fa command line: verbs, exit codes, and golden JSON reports."""
import io
import json
import pathlib
import time

import pytest

import finarith.cli as cli
import finarith.modal as modal
from finarith.cli import main
from finarith.core import make_truncation
from finarith.corpus import load_packaged_pairs
from finarith.interp import InstrumentedStructure
from finarith.logic import parse_formula, print_formula
from test_modal import counting_code

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "truncate": ["--format", "json", "truncate", "--n", "100"],
    "axioms": ["--format", "json", "axioms", "--n", "12"],
    "lift": ["--format", "json", "lift", "--n", "100"],
    "tower": ["--format", "json", "tower", "--n", "12", "--stages", "2"],
    "eval": ["--format", "json", "eval", "--trunc", "10", "--trace",
             "A a. E b. b = a + 1"],
    "modal_eval": ["--format", "json", "modal-eval", "--subsets", "1",
                   "--world", "empty", "dia (Def(1) & !Def(0))"],
    "frame": ["--format", "json", "frame", "--subsets", "2"],
    "validate_search": ["--format", "json", "validate", "--subsets", "1",
                        "--schema", "dot3", "--search"],
    "translate": ["--format", "json", "translate", "E x. x = 1 + 1"],
    "translation_theorem": ["--format", "json", "translation-theorem",
                            "--subsets", "2"],
}


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def redact(text):
    """Zero the timing fields so reports compare byte-exactly."""
    record = json.loads(text)
    record["timings"] = {"total_s": 0}
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_report(name):
    _, output = run(GOLDEN_CASES[name])
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert redact(output) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_repeat_runs_identical(name):
    _, first = run(GOLDEN_CASES[name])
    _, second = run(GOLDEN_CASES[name])
    assert redact(first) == redact(second)


def test_the_parser_is_built_once_per_process(monkeypatch):
    run(GOLDEN_CASES["modal_eval"])

    def refuse(*args, **kwargs):
        raise AssertionError("a second argparse parser was built")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse)
    code, output = run(GOLDEN_CASES["modal_eval"])
    assert code == 0
    assert redact(output) == (GOLDEN_DIR / "modal_eval.json").read_text()


# The options only some verbs have, and those verbs.
VERB_OPTIONS = {
    "trace": {"eval"},
    "corpus": {"axioms", "validate", "translation-theorem"},
    "search": {"validate"},
    "width": {"lift", "tower"},
}


def test_the_shared_parser_keeps_nothing_between_verbs():
    # Every golden invocation twice in one process, each next to other verbs
    # and then in reverse order: no record takes a value left by another.
    names = sorted(GOLDEN_CASES)
    for name in names + names[::-1]:
        _, output = run(GOLDEN_CASES[name])
        assert redact(output) == (GOLDEN_DIR / f"{name}.json").read_text(), name
        record = json.loads(output)
        for key, verbs in VERB_OPTIONS.items():
            assert key not in record["params"] or record["command"] in verbs, (name, key)


class TestExitCodes:
    def test_pass_is_zero(self):
        code, _ = run(["axioms", "--n", "12"])
        assert code == 0

    def test_counterexample_is_one(self):
        code, _ = run(["validate", "--subsets", "1", "--schema", "dot3", "--search"])
        assert code == 1

    def test_usage_error_is_two(self):
        code, _ = run(["axioms", "--n", "0"])
        assert code == 2

    def test_inadmissible_lift_is_two(self):
        code, _ = run(["lift", "--n", "8"])
        assert code == 2

    def test_base_two_lift_passes(self):
        # 8 is 1000 in base 2: four digits.
        code, output = run(["--format", "json", "lift", "--n", "8", "--width", "7"])
        assert code == 0
        assert json.loads(output)["results"][0]["checks"] == {
            "embedded_copy_isomorphic": True,
            "representation_identity": True,
            "round_trip_identity": True,
        }

    def test_lift_exit_codes_over_a_grid(self):
        for n in range(1, 17):
            for width in range(2, 9):
                code, _ = run(["lift", "--n", str(n), "--width", str(width)])
                assert code in (0, 1, 2), (n, width)

    def test_parse_error_is_two(self):
        code, _ = run(["eval", "--trunc", "10", "A a. ("])
        assert code == 2

    def test_unknown_world_is_two(self):
        code, _ = run(["modal-eval", "--aristotelian", "3", "--world", "9", "0 = 0"])
        assert code == 2

    def test_deeply_nested_negation_is_two(self):
        code, _ = run(["eval", "--trunc", "3", "!" * 3000 + "0 = 0"])
        assert code == 2

    def test_deeply_nested_modality_is_two(self):
        code, _ = run(["modal-eval", "--aristotelian", "3", "--world", "1",
                       "dia " * 3000 + "0 = 0"])
        assert code == 2

    # At 600, modal-eval fails in evaluation and validate decides the T
    # instance, which holds on the chain; at 3000 both fail in parsing.
    @pytest.mark.parametrize("depth, validate_code", [
        pytest.param(600, 0, id="600"), pytest.param(3000, 2, id="3000"),
    ])
    def test_deeply_nested_modality_is_two_without_a_traceback(
        self, depth, validate_code, tmp_path, capsys
    ):
        text = "dia " * depth + "0 = 0"
        corpus = tmp_path / "pairs.fml"
        corpus.write_text(f"{text} ; 0 = 0\n")
        for argv, want in (
            (["modal-eval", "--aristotelian", "3", "--world", "1", text], 2),
            (["validate", "--aristotelian", "3", "--schema", "T", "--corpus", str(corpus)],
             validate_code),
        ):
            code, out = run(argv)
            err = capsys.readouterr().err
            assert code == want, argv[0]
            if want == 2:
                assert err.startswith("error:") and "Traceback" not in err, err
            else:
                assert err == "" and "counterexamples=[]" in out, out

    def test_deeply_parenthesized_translate_is_two(self):
        code, _ = run(["translate", "(" * 3000 + "0 = 0" + ")" * 3000])
        assert code == 2

    def test_modal_induction_corpus_is_two(self, tmp_path):
        corpus = tmp_path / "ind.fml"
        corpus.write_text("dia x = 0\n")
        code, _ = run(["axioms", "--n", "12", "--corpus", str(corpus)])
        assert code == 2

    def test_negative_stage_count_is_two(self):
        code, _ = run(["tower", "--n", "12", "--stages", "-1"])
        assert code == 2

    def test_negative_search_budget_is_two(self):
        code, _ = run(["--budget", "-5", "validate", "--subsets", "1",
                       "--schema", "dot3", "--search"])
        assert code == 2

    def test_negative_axioms_budget_is_two(self):
        code, _ = run(["--budget", "-1", "axioms", "--n", "12"])
        assert code == 2

    def test_negative_lift_budget_is_two(self):
        code, _ = run(["--budget", "-1", "lift", "--n", "100"])
        assert code == 2

    @pytest.mark.parametrize("system", ["--subsets", "--aristotelian"])
    def test_system_over_the_pair_budget_is_two_at_once(self, system, capsys):
        start = time.perf_counter()
        code, _ = run(["frame", system, "100000"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err, err
        assert elapsed < 1.0

    def test_out_of_memory_is_two(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "tower", exhausted)
        code, _ = run(["tower", "--n", "12", "--stages", "4"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


    def test_oversized_roster_is_two_at_once(self, capsys):
        # Stage 4 over Truncation(12) has a base of about 2.2e7; its roster
        # walk once ran out of memory.
        start = time.perf_counter()
        code, _ = run(["tower", "--n", "12", "--stages", "4"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "roster budget" in err, err
        assert elapsed < 1.0


def _library_verdict(system, schema):
    """The exit code and counterexamples that check_schema gives on the
    packaged pair corpus."""
    hits = modal.check_schema(system, modal.schema_by_name(schema),
                              load_packaged_pairs("schema_instances.fml"))
    return (1 if hits else 0), [
        {"world": h.world_id, "phi": print_formula(h.phi),
         "psi": None if h.psi is None else print_formula(h.psi)}
        for h in hits
    ]


# The parser builds a chain of sums without recursion; the guarded
# free_variables reports its overflow as an EvalError, not cli.main's backstop.
_LONG_SUM = "0 = " + " + ".join(["1"] * 3000)


@pytest.mark.parametrize("argv, expected", [
    (["eval", "--trunc", "3", "x = 0"], 2),
    (["validate", "--subsets", "1", "--schema", "T", "--search"], 2),
    (["eval", "--subset", "1,x", "0 = 0"], 2),
    (["eval", "--subset", "empty", "0 = 0"], 0),
    (["validate", "--subsets", "1", "--schema", "dot3"],
     lambda: _library_verdict(modal.arbitrary_set_system(1), "dot3")),
    (["validate", "--fork", "--schema", "dot2"],
     lambda: _library_verdict(modal.fork_system(), "dot2")),
    (["eval", "--trunc", "3", _LONG_SUM], 2),
    (["translate", _LONG_SUM], 2),
], ids=["free-variables", "search-not-dot3", "bad-subset", "empty-subset",
        "packaged-pairs-subsets", "packaged-pairs-fork", "long-sum", "translate-long-sum"])
def test_exit_code_of_each_remaining_path(argv, expected, capsys):
    code, out = run(["--format", "json", *argv])
    err = capsys.readouterr().err
    if callable(expected):
        expected, hits = expected()
        assert json.loads(out)["results"][0]["counterexamples"] == hits
    assert code == expected
    if code == 2:
        assert err.startswith("error:") and "Traceback" not in err, err


class TestReportContent:
    def test_truncate_at_ten_to_the_thirty(self):
        n = 10**30
        _, out = run(["--format", "json", "truncate", "--n", str(n)])
        assert json.loads(out)["results"] == [
            {"n": n, "size": n + 1, "largest": n, "largest_square_base": 10**15}
        ]

    def test_eval_counterexample_trace(self):
        _, out = run(GOLDEN_CASES["eval"])
        record = json.loads(out)
        result = record["results"][0]
        assert result["value"] is False
        assert result["trace"][0] == {"kind": "counterexample", "var": "a", "value": 10}

    @pytest.mark.parametrize("trace,requests", [(True, 20), (False, 10)])
    def test_eval_evaluates_the_top_level_once(self, monkeypatch, trace, requests):
        # With --trace the value is the first level's verdict: the only
        # evaluation is the trace's own scans.  Ground requests are counted
        # at the model; one more evaluation of the sentence would add 10.
        models = []

        def instrumented(n):
            models.append(InstrumentedStructure(make_truncation(n)))
            return models[-1]

        monkeypatch.setattr(cli, "make_truncation", instrumented)
        text = "E x < N. A y < N. (x * y = 0 | Def(x + y))"
        code, out = run(["--format", "json", "eval", "--trunc", "10"]
                        + ["--trace"] * trace + [text])
        assert code == 0
        assert json.loads(out)["results"][0]["value"] is True
        assert [len(m.requests) for m in models] == [requests]

    def test_modal_eval_witness_world(self):
        _, out = run(GOLDEN_CASES["modal_eval"])
        result = json.loads(out)["results"][0]
        assert result["value"] is True
        assert result["witness_world"] == "1"

    def test_modal_eval_witness_costs_no_extra_evaluation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(modal, "_code", counting_code(calls))
        text = "dia E x. x = " + " + ".join(["1"] * 8)
        modal.eval_modal(modal.aristotelian_system(12), "1", parse_formula(text))
        alone = len(calls)
        calls.clear()
        code, out = run(["--format", "json", "modal-eval", "--aristotelian", "12",
                         "--world", "1", text])
        assert code == 0
        assert json.loads(out)["results"][0]["witness_world"] == "8"
        assert len(calls) == alone

    def test_frame_classification(self):
        _, out = run(GOLDEN_CASES["frame"])
        result = json.loads(out)["results"][0]
        assert result["classification"] == "directed/S4.2"
        assert result["directed"] is True and result["linear"] is False

    def test_tallest_aristotelian_frame_in_seconds(self):
        start = time.perf_counter()
        code, out = run(["--format", "json", "frame", "--aristotelian", "1030"])
        assert time.perf_counter() - start < 10.0
        assert code == 0
        assert json.loads(out)["results"][0]["classification"] == "linear/S4.3"

    def test_tower_heights(self):
        _, out = run(GOLDEN_CASES["tower"])
        result = json.loads(out)["results"][0]
        assert result["heights"] == [12, 242, 759374]

    def test_translate_output(self):
        _, out = run(GOLDEN_CASES["translate"])
        result = json.loads(out)["results"][0]
        assert result["output"] == "dia E x. x = 1 + 1"

    def test_validate_with_corpus_file(self, tmp_path):
        corpus = tmp_path / "pairs.fml"
        corpus.write_text("Def(1) & !Def(0) ; Def(0) & !Def(1)\n")
        code, out = run([
            "--format", "json", "validate", "--subsets", "1",
            "--schema", "dot3", "--corpus", str(corpus),
        ])
        assert code == 1
        hits = json.loads(out)["results"][0]["counterexamples"]
        assert hits[0]["world"] == "empty"

    def test_text_format_mentions_command(self):
        _, out = run(["frame", "--fork"])
        assert "fa frame" in out
        assert "preorder/S4" in out

    def test_axioms_with_corpus_file(self, tmp_path):
        corpus = tmp_path / "ind.fml"
        corpus.write_text("x = x\nx + 0 = x\n")
        code, _ = run(["axioms", "--n", "20", "--corpus", str(corpus)])
        assert code == 0
