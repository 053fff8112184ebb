"""The fa command line: verbs, exit codes, and golden JSON reports."""
import io
import json
import pathlib

import pytest

import finarith.cli as cli
import finarith.logic as logic
import finarith.modal as modal
from finarith.cli import main
from finarith.logic import parse_formula

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

    def test_out_of_memory_is_two(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "tower", exhausted)
        code, _ = run(["tower", "--n", "12", "--stages", "4"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestReportContent:
    def test_eval_counterexample_trace(self):
        _, out = run(GOLDEN_CASES["eval"])
        record = json.loads(out)
        result = record["results"][0]
        assert result["value"] is False
        assert result["trace"][0] == {"kind": "counterexample", "var": "a", "value": 10}

    @pytest.mark.parametrize("trace,calls", [(True, 41), (False, 22)])
    def test_eval_evaluates_the_top_level_once(self, monkeypatch, trace, calls):
        # With --trace the value is the first level's verdict: the only
        # evaluation is the trace's own scans.
        count = []
        real = logic._eval

        def counting(*args):
            count.append(args)
            return real(*args)

        monkeypatch.setattr(logic, "_eval", counting)
        text = "E x < N. A y < N. (x * y = 0 | Def(x + y))"
        code, out = run(["--format", "json", "eval", "--trunc", "10"]
                        + ["--trace"] * trace + [text])
        assert code == 0
        assert json.loads(out)["results"][0]["value"] is True
        assert len(count) == calls

    def test_modal_eval_witness_world(self):
        _, out = run(GOLDEN_CASES["modal_eval"])
        result = json.loads(out)["results"][0]
        assert result["value"] is True
        assert result["witness_world"] == "1"

    def test_modal_eval_witness_costs_no_extra_evaluation(self, monkeypatch):
        calls = []
        real = modal._eval

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(modal, "_eval", counting)
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
