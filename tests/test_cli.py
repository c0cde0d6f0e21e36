import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfa.classic
import hfa.hesitant
from hfa import Thfe, format_degree, parse_degree, parse_document, serialize_automaton
from hfa.cli import format_word, main
from hfa.oracle import iter_words

from support import farey_pool, random_nthfa, random_relabeling, relabel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


class TestEval:
    def test_nthfa_word(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "eval", fx(fixtures_dir, "m1.json"), "a")
        assert code == 0
        assert out == "{1/2, 3/5, 9/10}\n"

    def test_empty_word_spellings(self, capsys, fixtures_dir):
        path = fx(fixtures_dir, "m1.json")
        assert run(capsys, "eval", path, "")[1] == "{1/10}\n"
        assert run(capsys, "eval", path, "--lambda")[1] == "{1/10}\n"

    def test_missing_word_is_an_input_error(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "eval", fx(fixtures_dir, "m1.json"))
        assert code == 2
        assert "word" in err

    def test_classic_kinds_report_accept_reject(self, capsys, fixtures_dir):
        path = fx(fixtures_dir, "classic_dfa.json")
        assert run(capsys, "eval", path, "aa")[1] == "accept\n"
        assert run(capsys, "eval", path, "a")[1] == "reject\n"

    def test_decomposition_documents_evaluate(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "eval", fx(fixtures_dir, "levels.json"), "a")
        assert code == 0
        assert out == "{1/2, 3/5, 9/10}\n"

    def test_multi_character_symbols_use_separator(self, capsys, fixtures_dir):
        path = fx(fixtures_dir, "multi_token.json")
        code, out, _ = run(capsys, "eval", path, "ab")
        assert code == 0
        assert out == "{1/2}\n"
        code, out, _ = run(capsys, "eval", path, "ab.cd.ab")
        assert code == 0
        assert out == "{1/2}\n"

    def test_unknown_symbol_is_an_input_error(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "eval", fx(fixtures_dir, "m1.json"), "z")
        assert code == 2
        assert "error:" in err

    def test_missing_file_is_an_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", str(tmp_path / "nope.json"), "a")
        assert code == 2
        assert "error:" in err


class TestDocumentCommands:
    def test_union_output_parses_and_evaluates(self, capsys, fixtures_dir, m1, n1):
        code, out, _ = run(capsys, "union", fx(fixtures_dir, "m1.json"),
                           fx(fixtures_dir, "n1.json"))
        assert code == 0
        u = parse_document(out).automaton
        from hfa import sup_combination
        for w in [(), ("a",), ("a", "a")]:
            assert u.eval(w) == sup_combination(m1.eval(w), n1.eval(w))

    def test_union_mixed_kinds(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "union", fx(fixtures_dir, "m1.json"),
                           fx(fixtures_dir, "const_half.json"))
        assert code == 0
        assert json.loads(out)["kind"] == "nthfa"

    def test_union_alphabet_mismatch(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "union", fx(fixtures_dir, "m1.json"),
                           fx(fixtures_dir, "multi_token.json"))
        assert code == 2
        assert "alphabet" in err

    def test_intersect(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "intersect", fx(fixtures_dir, "det.json"),
                           fx(fixtures_dir, "det2.json"))
        assert code == 0
        p = parse_document(out).automaton
        from hfa import inf_combination, parse_document as pd
        a = pd((fixtures_dir / "det.json").read_text()).automaton
        b = pd((fixtures_dir / "det2.json").read_text()).automaton
        for w in [(), ("a",), ("b", "a"), ("a", "b", "b")]:
            assert p.eval(w) == inf_combination(a.eval(w), b.eval(w))

    def test_determinize_cnthfa(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "determinize", fx(fixtures_dir, "crisp.json"))
        assert code == 0
        assert json.loads(out)["kind"] == "cdthfa"

    def test_determinize_classic_nfa(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "determinize", fx(fixtures_dir, "classic_nfa.json"))
        assert code == 0
        assert json.loads(out)["kind"] == "dfa"

    def test_determinize_rejects_nthfa(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "determinize", fx(fixtures_dir, "m1.json"))
        assert code == 2
        assert "expected" in err

    def test_crispify(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "crispify", fx(fixtures_dir, "m1.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "cnthfa"
        assert doc["metadata"] == {"normalized": True}

    def test_crispify_rejects_classic_kinds(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "crispify", fx(fixtures_dir, "classic_dfa.json"))
        assert code == 2

    def test_embed(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "embed", fx(fixtures_dir, "crisp.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "nthfa"
        assert all(row["value"] == ["1"] for row in doc["transitions"])

    def test_range_sorted_ascending(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "range", fx(fixtures_dir, "m1.json"))
        assert code == 0
        assert out == "{0}\n{1/10}\n{1/2, 3/5, 9/10}\n"

    def test_range_of_constant(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "range", fx(fixtures_dir, "const_half.json"))
        assert code == 0
        assert out == "{1/2}\n"


class TestDecomposeRecompose:
    def test_stdout_document(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "decompose", fx(fixtures_dir, "m1.json"))
        assert code == 0
        assert json.loads(out)["kind"] == "decomposition"

    def test_output_directory(self, capsys, fixtures_dir, tmp_path):
        out_dir = tmp_path / "levels"
        code, out, _ = run(capsys, "decompose", fx(fixtures_dir, "m1.json"),
                           "-o", str(out_dir))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == f"wrote {out_dir / 'decomposition.json'}"
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["decomposition.json", "level_000.json",
                         "level_001.json", "level_002.json"]
        level = parse_document((out_dir / "level_001.json").read_text()).automaton
        assert level.accepts(())

    def test_recompose_round_trip(self, capsys, fixtures_dir, tmp_path):
        code, out, _ = run(capsys, "decompose", fx(fixtures_dir, "m1.json"))
        doc = tmp_path / "d.json"
        doc.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "recompose", str(doc))
        assert code == 0
        rebuilt = tmp_path / "r.json"
        rebuilt.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "equiv", str(rebuilt), fx(fixtures_dir, "m1.json"))
        assert code == 0
        assert out == "equivalent\n"

    def test_recompose_rejects_other_kinds(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "recompose", fx(fixtures_dir, "m1.json"))
        assert code == 2


class TestEquiv:
    def test_equivalent_exit_zero(self, capsys, fixtures_dir):
        path = fx(fixtures_dir, "m1.json")
        code, out, _ = run(capsys, "equiv", path, path)
        assert code == 0
        assert out == "equivalent\n"

    def test_not_equivalent_exit_one_with_counterexample(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "equiv", fx(fixtures_dir, "m1.json"),
                           fx(fixtures_dir, "n1.json"))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "not equivalent"
        assert lines[1].startswith('counterexample: "')

    def test_lambda_counterexample_renders_empty(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "equiv", fx(fixtures_dir, "const_half.json"),
                           fx(fixtures_dir, "const_third.json"))
        assert code == 1
        assert 'counterexample: ""' in out

    def test_mixed_kinds_compare(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "equiv", fx(fixtures_dir, "crisp.json"),
                           fx(fixtures_dir, "crisp.json"))
        assert code == 0


class TestValidate:
    def test_clean_files_report_ok(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "validate", fx(fixtures_dir, "m1.json"),
                             fx(fixtures_dir, "det.json"))
        assert code == 0
        assert out.count(": ok") == 2
        assert err == ""

    def test_warnings_do_not_fail_validation(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "validate", fx(fixtures_dir, "partial_dfa.json"))
        assert code == 0
        assert "warning" in err
        assert "CompletedWithSink" in err

    def test_errors_exit_two(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "validate", fx(fixtures_dir, "bad_number.json"),
                             fx(fixtures_dir, "bad_syntax.json"),
                             fx(fixtures_dir, "bad_partial_cdthfa.json"))
        assert code == 2
        assert "InvalidDocument" in err
        assert "SyntaxError" in err
        assert "IncompleteTransition" in err

    def test_unreadable_path_is_reported_and_skipped(self, capsys, fixtures_dir, tmp_path):
        missing = str(tmp_path / "nope.json")
        code, out, err = run(capsys, "validate", fx(fixtures_dir, "m1.json"), missing,
                             fx(fixtures_dir, "bad_number.json"))
        assert code == 2
        assert out == f"{fx(fixtures_dir, 'm1.json')}: ok\n"
        lines = err.splitlines()
        assert lines[0].startswith(f"{missing}: error: [Errno 2] ")
        assert lines[1].startswith(f"{fx(fixtures_dir, 'bad_number.json')}: error: InvalidDocument")
        assert len(lines) == 2

    def test_number_too_long_for_int_is_an_invalid_degree(self, capsys, fixtures_dir, tmp_path):
        doc = json.loads((fixtures_dir / "m1.json").read_text(encoding="utf-8"))
        doc["final"]["q0"] = ["1/" + "1" * 5000]
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{path}: error: InvalidDegree: final['q0']: ")
        assert "5000 digits" in lines[0]
        assert run(capsys, "eval", str(path), "a")[0] == 2

    @pytest.mark.parametrize("argv", [("validate",), ("eval", "a")], ids=lambda c: c[0])
    def test_integer_past_the_digit_limit_exits_two(self, capsys, fixtures_dir, argv):
        code, out, err = run(capsys, argv[0], fx(fixtures_dir, "huge_number.json"), *argv[1:])
        assert (code, out) == (2, "")
        assert "Traceback" not in err and err.count("error: ") == 1


class TestOracleCheck:
    def test_single_machine_matches_reference(self, capsys, fixtures_dir):
        for name in ("m1.json", "crisp.json", "det.json"):
            code, out, _ = run(capsys, "oracle-check", fx(fixtures_dir, name))
            assert code == 0
            assert "all values match the reference" in out

    @pytest.mark.parametrize("name, kind", [("crisp.json", "Cnthfa"), ("det.json", "Cdthfa")])
    def test_single_crisp_document_checks_its_own_eval(
        self, capsys, fixtures_dir, monkeypatch, name, kind
    ):
        monkeypatch.setattr(getattr(hfa.hesitant, kind), "eval", lambda self, w: Thfe([1]))
        code, out, _ = run(capsys, "oracle-check", fx(fixtures_dir, name))
        assert code == 1
        assert out.splitlines()[0] == "mismatch"

    def test_pair_mode_agreement(self, capsys, fixtures_dir):
        path = fx(fixtures_dir, "m1.json")
        code, out, _ = run(capsys, "oracle-check", path, path, "-l", "5")
        assert code == 0
        assert "agree on all words up to length 5" in out

    @pytest.mark.parametrize("pair", [False, True])
    def test_negative_length_is_a_usage_error(self, capsys, fixtures_dir, pair):
        paths = [fx(fixtures_dir, "m1.json")] * (2 if pair else 1)
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", *paths, "-l", "-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be a non-negative integer, got '-1'" in err

    def test_pair_mode_disagreement(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "oracle-check", fx(fixtures_dir, "const_half.json"),
                           fx(fixtures_dir, "const_third.json"))
        assert code == 1
        assert out.splitlines()[0] == "disagree"


class TestExitCodes:
    def test_budget_exhaustion_exits_three(self, capsys, fixtures_dir, monkeypatch):
        monkeypatch.setattr(hfa.classic, "DEFAULT_MAX_VECTORS", 1)
        code, _, err = run(capsys, "range", fx(fixtures_dir, "m1.json"))
        assert code == 3
        assert err.startswith("closure-budget-exceeded:")

    @pytest.mark.parametrize("argv", [
        ["determinize", "crisp.json"],
        ["intersect", "det.json", "det2.json"],
        ["equiv", "crisp.json", "crisp.json"],
        ["determinize", "classic_nfa.json"],
        ["recompose", "levels.json"],
    ])
    def test_subset_and_product_budgets_exit_three(self, capsys, fixtures_dir, monkeypatch, argv):
        monkeypatch.setattr(hfa.classic, "DEFAULT_MAX_VECTORS", 1)
        paths = [fx(fixtures_dir, a) if a.endswith(".json") else a for a in argv]
        code, out, err = run(capsys, *paths)
        assert (code, out) == (3, "")
        assert err.startswith("closure-budget-exceeded:")

    def test_parse_errors_exit_two(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "eval", fx(fixtures_dir, "bad_number.json"), "a")
        assert code == 2
        assert "error:" in err

    def test_usage_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, extra", [
        (("eval", "m1.json", "--bogus"), "--bogus"),
        (("eval", "m1.json", "--lambda", "a", "b"), "a b"),
        (("eval", "m1.json", "a", "b"), "b"),
        (("range", "m1.json", "a"), "a"),
    ])
    def test_unrecognized_arguments_exit_two(self, capsys, fixtures_dir, argv, extra):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], fx(fixtures_dir, argv[1]), *argv[2:]])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"hfa: error: unrecognized arguments: {extra}\n")


class TestInjectiveStateNames:
    """State names containing the separators of constructed names."""

    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_subset_names(self, capsys, tmp_path):
        # {a,b} would name both the subset {"a,b"} and the subset {"a", "b"}.
        path = self.write(tmp_path, "c.json", {
            "kind": "cnthfa", "alphabet": ["x", "y"], "states": ["s", "a,b", "a", "b"],
            "initial": "s",
            "transitions": [{"from": "s", "symbol": "x", "to": ["a,b"]},
                            {"from": "s", "symbol": "y", "to": ["a", "b"]}],
            "final": {"a,b": ["1"], "a": ["1/2"]},
        })
        code, out, err = run(capsys, "determinize", path)
        assert (code, err) == (0, "")
        d = parse_document(out).automaton
        assert d.states == ("{s}", "{a\\,b}", "{a,b}", "{}")
        assert [str(d.eval(w)) for w in [(), ("x",), ("y",)]] == ["{0}", "{1}", "{1/2}"]
        assert run(capsys, "equiv", path, path) == (0, "equivalent\n", "")

    def test_pair_names(self, capsys, tmp_path):
        # (a,b,c) would name both the pair ("a", "b,c") and the pair ("a,b", "c").
        left = self.write(tmp_path, "l.json", {
            "kind": "cdthfa", "alphabet": ["x"], "states": ["a", "a,b"], "initial": "a",
            "transitions": [{"from": "a", "symbol": "x", "to": "a,b"},
                            {"from": "a,b", "symbol": "x", "to": "a"}],
            "final": {"a": ["1"]},
        })
        right = self.write(tmp_path, "r.json", {
            "kind": "cdthfa", "alphabet": ["x"], "states": ["b,c", "c"], "initial": "b,c",
            "transitions": [{"from": "b,c", "symbol": "x", "to": "c"},
                            {"from": "c", "symbol": "x", "to": "b,c"}],
            "final": {"b,c": ["1/2"]},
        })
        code, out, err = run(capsys, "intersect", left, right)
        assert (code, err) == (0, "")
        p = parse_document(out).automaton
        assert p.states == ("(a,b\\,c)", "(a\\,b,c)")
        assert [str(p.eval(w)) for w in [(), ("x",)]] == ["{1/2}", "{0}"]


class TestUnreadableDocuments:
    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "nthfa", "states": ["\xe9"]}')
        code, out, err = run(capsys, "eval", str(path), "a")
        assert (code, out) == (2, "")
        assert err == (f"error: SyntaxError (line 1): {path}: not valid UTF-8 (invalid "
                       "continuation byte)\n")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"{path}: error: SyntaxError (line 1): not valid UTF-8 (invalid continuation byte)\n"

    def test_an_operand_that_is_not_utf8_is_named(self, capsys, fixtures_dir, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "nthfa", "states": ["\xe9"]}')
        code, out, err = run(capsys, "equiv", fx(fixtures_dir, "m1.json"), str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: SyntaxError (line 1): {path}: not valid UTF-8 (invalid "
                       "continuation byte)\n")

    def test_a_file_name_that_is_not_utf8_is_printed_escaped(self, fixtures_dir, tmp_path,
                                                            monkeypatch):
        """Such a name reaches the command with lone surrogates; the lines
        that name it take its bytes as \\xNN escapes, so a strict UTF-8
        stdout, as a UTF-8 locale gives, writes them."""
        path = tmp_path / os.fsdecode(b"m\xff.json")
        path.write_bytes((fixtures_dir / "m1.json").read_bytes())
        out_dir = tmp_path / os.fsdecode(b"out\xff")
        written = io.BytesIO()
        stdout = io.TextIOWrapper(written, encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["validate", str(path)]) == 0
        assert main(["decompose", str(path), "-o", str(out_dir)]) == 0
        stdout.flush()
        lines = written.getvalue().decode("utf-8").splitlines()
        assert lines[:2] == [f"{tmp_path}{os.sep}m\\xff.json: ok",
                             f"wrote {tmp_path}{os.sep}out\\xff{os.sep}decomposition.json"]
        assert len(lines) == 5
        assert (out_dir / "level_002.json").is_file()

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        code, out, err = run(capsys, "eval", str(path), "a")
        assert (code, out) == (2, "")
        assert err == f"error: SyntaxError: {path}: nesting is too deep to parse\n"
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"{path}: error: SyntaxError: nesting is too deep to parse\n"


def test_relabeling_degree_texts_relabels_eval_and_range(capsys, tmp_path):
    """Degrees matter only by their order: rewriting every degree text of a
    document by a strictly increasing f that fixes 0 and 1 relabels what
    eval and range print."""
    rng = random.Random(285)
    pool = farey_pool(6)
    for i in range(12):
        m = random_nthfa(rng, max_states=3, alphabet=["a", "b"], pool=pool)
        f = random_relabeling(rng, pool)
        doc = json.loads(serialize_automaton(m))
        for texts in [row["value"] for row in doc["transitions"]] + list(doc["final"].values()):
            texts[:] = [format_degree(f[parse_degree(text)]) for text in texts]
        path, relabeled = tmp_path / f"m{i}.json", tmp_path / f"f{i}.json"
        path.write_text(serialize_automaton(m), encoding="utf-8")
        relabeled.write_text(json.dumps(doc), encoding="utf-8")
        commands = [("range",)] + [("eval", format_word(w, m.alphabet))
                                   for w in iter_words(m.alphabet, 3)]
        for command, *word in commands:
            code, out, _ = run(capsys, command, str(path), *word)
            assert code == 0
            want = "".join(f"{relabel(f, Thfe(line[1:-1].split(', ')))}\n"
                           for line in out.splitlines())
            assert run(capsys, command, str(relabeled), *word) == (0, want, ""), (doc, word)


class TestLoneSurrogates:
    """JSON can spell a lone surrogate ("\\ud800"), which UTF-8 cannot encode."""

    def test_validate_reports_the_name(self, capsys, fixtures_dir):
        path = fx(fixtures_dir, "surrogate_name.json")
        code, out, err = run(capsys, "validate", path)
        assert (code, out) == (2, "")
        assert err == (f"{path}: error: InvalidDocument: state name '\\ud800' holds a lone "
                       "surrogate\n")

    @pytest.mark.parametrize("command", ["determinize", "embed", "decompose"])
    def test_commands_exit_two_with_one_error(self, capsys, fixtures_dir, command):
        path = fx(fixtures_dir, "surrogate_name.json")
        code, out, err = run(capsys, command, path)
        assert (code, out) == (2, "")
        assert err == (f"error: InvalidDocument: {path}: state name '\\ud800' holds a lone "
                       "surrogate\n")

    def test_low_surrogate_symbol(self, capsys, fixtures_dir, tmp_path):
        doc = json.loads((fixtures_dir / "crisp.json").read_text(encoding="utf-8"))
        doc["alphabet"] = ["a", "\udc80"]
        for row in doc["transitions"]:
            row["symbol"] = {"b": "\udc80"}.get(row["symbol"], row["symbol"])
        path = tmp_path / "low.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "determinize", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: InvalidDocument: {path}: alphabet symbol '\\udc80' holds a lone "
                       "surrogate\n")


# Characters of arbitrary names: punctuation, the escapes of constructed
# names, non-ASCII text and any code point UTF-8 can encode, which leaves out
# lone surrogates; named_documents puts one in by choice.
NAME_CHARACTERS = st.sampled_from(list("ab-_{}()[]\\,'\":/éλ😀")) | st.characters(codec="utf-8")


@st.composite
def named_documents(draw):
    """A cnthfa document with arbitrary state and symbol names, and whether
    one of its names holds a lone surrogate."""
    text = st.text(NAME_CHARACTERS, min_size=1, max_size=3)
    symbols = text.filter(lambda s: "." not in s and not any(c.isspace() for c in s))
    alphabet = draw(st.lists(symbols, min_size=1, max_size=2, unique=True))
    states = draw(st.lists(text, min_size=2, max_size=3, unique=True))
    surrogate = draw(st.booleans())
    if surrogate:
        names = draw(st.sampled_from([alphabet, states]))
        names[draw(st.integers(0, len(names) - 1))] += draw(st.characters(categories=["Cs"]))
    rows = [{"from": q, "symbol": a, "to": [p for p in states if draw(st.booleans())]}
            for q in states for a in alphabet]
    doc = {
        "kind": "cnthfa", "alphabet": alphabet, "states": states, "initial": states[0],
        "transitions": [row for row in rows if row["to"]],
        "final": {q: [draw(st.sampled_from(["1/3", "1/2", "1"]))]
                  for q in states if draw(st.booleans())},
    }
    return doc, surrogate


MISSING = 'missing word; use "" or --lambda for the empty word'


def call(*argv):
    """``main`` in process: its exit code, stdout and stderr.  Unlike ``run``
    it needs no capsys, a per-test fixture that hypothesis cannot share
    across examples."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(named_documents())
def test_arbitrary_names_reach_a_defined_outcome(drawn):
    """Every subcommand, in process, on a document with arbitrary names: a
    name with a lone surrogate exits 2 with one error line; any other name
    gives exit 0 and UTF-8 output that parses back to the same bytes."""
    doc, surrogate = drawn
    with tempfile.TemporaryDirectory() as tmp:
        def at(name):
            return str(Path(tmp, name))

        path = at("m.json")
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        if surrogate:
            for argv in [("validate",), ("determinize",), ("embed",), ("decompose",),
                         ("range",), ("eval", "--lambda"), ("equiv", path)]:
                code, out, err = call(argv[0], path, *argv[1:])
                assert (code, out) == (2, "")
                assert err.count("\n") == err.count("error: ") == 1, err
                assert "holds a lone surrogate" in err
            return
        m = parse_document(Path(path).read_text(encoding="utf-8")).automaton
        assert call("validate", path) == (0, f"{path}: ok\n", "")
        word = (*doc["alphabet"], doc["alphabet"][0])
        text = format_word(word, m.alphabet)
        if text == "--":  # argparse drops this word, so it is missing (CHANGES.md, FOUND)
            expected = 2, "", f"error: InvalidDocument: {MISSING}\n"
            assert call("eval", path, "--", text) == expected
        else:
            assert call("eval", path, "--", text) == (0, f"{m.eval(word)}\n", "")
        assert call("range", path)[0] == 0
        assert call("oracle-check", path, "-l", "2")[0] == 0
        # Each output is saved under its key; crispify and recompose read two.
        commands = {
            "d": ("determinize", path), "e": ("embed", path), "u": ("union", path, path),
            "i": ("intersect", path, path), "l": ("decompose", path),
            "c": ("crispify", at("e")), "r": ("recompose", at("l")),
        }
        for name, argv in commands.items():
            code, out, err = call(*argv)
            assert (code, err) == (0, "")
            Path(at(name)).write_bytes(out.encode("utf-8"))
            result = parse_document(out)
            assert not result.warnings and serialize_automaton(result.automaton) == out
            if name != "l":
                assert call("equiv", at(name), path) == (0, "equivalent\n", "")
        embedded = parse_document(Path(at("e")).read_text(encoding="utf-8")).automaton
        assert embedded.states == m.states


class TestDeterminism:
    COMMANDS = [
        ("eval", "m1.json", "a"),
        ("union", "m1.json", "n1.json"),
        ("intersect", "det.json", "det2.json"),
        ("determinize", "crisp.json"),
        ("crispify", "m1.json"),
        ("embed", "crisp.json"),
        ("decompose", "zero_one.json"),
        ("recompose", "levels.json"),
        ("range", "zero_one.json"),
        ("equiv", "m1.json", "n1.json"),
        ("validate", "m1.json"),
        ("oracle-check", "m1.json", "n1.json"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda c: c[0])
    def test_two_runs_are_byte_identical(self, capsys, fixtures_dir, argv):
        resolved = [argv[0]] + [
            fx(fixtures_dir, part) if part.endswith(".json") else part
            for part in argv[1:]
        ]
        first = run(capsys, *resolved)
        second = run(capsys, *resolved)
        assert first == second


def test_cold_start_loads_no_oracle_or_dataclasses():
    """A fresh ``import hfa.cli`` leaves the oracle, and the modules
    dataclasses would pull in, unloaded; modules the interpreter loaded
    before the import do not count."""
    script = (
        "import sys; before = set(sys.modules); import hfa.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(hfa.classic.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "hfa.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "hfa.oracle"}


def test_readme_documents_the_public_surface():
    """Every name the package exports starts an inline code span in README."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [name for name in hfa.__all__ if not re.search(rf"`{name}\b", readme)]
    assert not missing, f"exported but not in README: {missing}"
