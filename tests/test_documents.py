import copy
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from hfa import (
    Cdthfa,
    Cnthfa,
    Dfa,
    DocumentError,
    LevelDecomposition,
    Nfa,
    Nthfa,
    ONE,
    Thfe,
    decompose,
    parse_document,
    serialize_automaton,
    validate_text,
)

from support import random_cdthfa, random_cnthfa, random_nthfa, successors


def roundtrip(x):
    text = serialize_automaton(x)
    result = parse_document(text)
    assert result.warnings == (), [str(w) for w in result.warnings]
    assert serialize_automaton(result.automaton) == text
    return result.automaton


def errors_of(text):
    return [d for d in validate_text(text) if d.severity == "error"]


def codes_of(text):
    return {d.code for d in errors_of(text)}


class TestRoundTrip:
    def test_nthfa(self, m1):
        m = roundtrip(m1)
        assert m.eval(("a",)) == m1.eval(("a",))

    def test_nthfa_with_metadata(self, m1):
        m = Nthfa(m1.states, m1.alphabet, m1.psi, m1.initial, m1.final_map,
                  {"b": 1, "a": [1, 2]})
        assert roundtrip(m).metadata == {"a": [1, 2], "b": 1}

    def test_cnthfa(self):
        roundtrip(random_cnthfa(random.Random(5)))

    def test_cdthfa(self):
        roundtrip(random_cdthfa(random.Random(7)))

    def test_dfa(self):
        d = Dfa(["q0", "q1"], ["a"], {("q0", "a"): "q1", ("q1", "a"): "q0"},
                "q0", ["q1"])
        assert roundtrip(d).accepts(("a",))

    def test_nfa(self):
        n = Nfa(["q0", "q1"], ["a", "b"],
                {("q0", "a"): {"q0", "q1"}, ("q1", "b"): {"q1"}}, "q0", ["q1"])
        assert roundtrip(n).accepts(("a", "b"))

    def test_targets_in_declared_order(self):
        # States declared out of name order: a target list is written in
        # declaration order, which the parser reads back without a warning.
        n = Nfa(["q1", "q0"], ["a"], {("q1", "a"): {"q0", "q1"}}, "q1", ["q0"])
        assert json.loads(serialize_automaton(n))["transitions"] == [
            {"from": "q1", "symbol": "a", "to": ["q1", "q0"]}
        ]
        roundtrip(n)

    def test_rows_and_finals_in_declared_order(self):
        # States and symbols declared out of name order: a dfa's rows and
        # accepting states are written in declaration order.
        d = Dfa(["q1", "q0"], ["b", "a"], {(q, a): "q0" for q in ("q0", "q1") for a in "ab"},
                "q1", ["q0", "q1"])
        doc = json.loads(serialize_automaton(d))
        assert [(row["from"], row["symbol"]) for row in doc["transitions"]] == [
            ("q1", "b"), ("q1", "a"), ("q0", "b"), ("q0", "a")]
        assert doc["final"] == ["q1", "q0"]
        roundtrip(d)

    def test_decomposition(self, m1):
        d = roundtrip(decompose(m1))
        assert isinstance(d, LevelDecomposition)
        assert [k for k, _ in d.levels] == [k for k, _ in decompose(m1).levels]

    def test_random_machines(self):
        rng = random.Random(11)
        for _ in range(10):
            roundtrip(random_nthfa(rng))


class TestSerializationShape:
    def test_key_order_and_trailing_newline(self, m1):
        text = serialize_automaton(m1)
        doc = json.loads(text)
        assert list(doc) == ["kind", "alphabet", "states", "initial",
                             "transitions", "final"]
        assert text.endswith("}\n")

    def test_zero_finals_omitted(self, n1):
        doc = json.loads(serialize_automaton(n1))
        assert "p0" not in doc["final"]

    def test_rationals_are_strings(self, m1):
        doc = json.loads(serialize_automaton(m1))
        assert doc["transitions"][0]["value"] == ["1/2", "9/10"]


class TestParseWarnings:
    def test_decimal_spelling_canonicalized(self, m1):
        text = serialize_automaton(m1).replace('"1/2"', '"0.5"')
        result = parse_document(text)
        assert any(w.code == "CanonicalizedValue" for w in result.warnings)
        assert result.automaton.eval(("a",)) == m1.eval(("a",))

    def test_duplicate_degrees_canonicalized(self, m1):
        text = serialize_automaton(m1).replace('"1/2",', '"1/2", "2/4",')
        result = parse_document(text)
        assert any(w.code == "CanonicalizedValue" for w in result.warnings)

    def test_explicit_zero_final_warns(self):
        text = json.dumps({
            "kind": "nthfa", "alphabet": ["a"], "states": ["q0"],
            "initial": "q0", "transitions": [], "final": {"q0": ["0"]},
        })
        result = parse_document(text)
        assert any(w.code == "CanonicalizedValue" for w in result.warnings)

    def test_unknown_top_level_field_ignored_with_warning(self, m1):
        doc = json.loads(serialize_automaton(m1))
        doc["comment"] = "hi"
        result = parse_document(json.dumps(doc))
        assert any(w.code == "IgnoredField" for w in result.warnings)

    def test_metadata_on_classic_kind_ignored(self):
        d = Dfa(["q"], ["a"], {("q", "a"): "q"}, "q", [])
        doc = json.loads(serialize_automaton(d))
        doc["metadata"] = {"x": 1}
        result = parse_document(json.dumps(doc))
        assert any(w.code == "IgnoredField" for w in result.warnings)


class TestParseErrors:
    def test_syntax_error_carries_line(self):
        diagnostics = validate_text('{\n  "kind": "nthfa",\n  broken\n}')
        assert diagnostics[0].code == "SyntaxError"
        assert diagnostics[0].line == 3

    def test_non_object_top_level(self):
        assert codes_of("[]") == {"InvalidDocument"}

    def test_unknown_kind(self):
        assert codes_of('{"kind": "pushdown"}') == {"InvalidDocument"}

    def test_native_numbers_rejected(self):
        text = json.dumps({
            "kind": "nthfa", "alphabet": ["a"], "states": ["q0"],
            "initial": "q0",
            "transitions": [{"from": "q0", "symbol": "a", "to": "q0",
                             "value": [0.5]}],
            "final": {},
        })
        assert "InvalidDocument" in codes_of(text)

    def test_degree_out_of_range(self):
        text = json.dumps({
            "kind": "nthfa", "alphabet": ["a"], "states": ["q0"],
            "initial": "q0", "transitions": [], "final": {"q0": ["3/2"]},
        })
        assert "DegreeOutOfRange" in codes_of(text)

    def test_malformed_degree(self):
        text = json.dumps({
            "kind": "nthfa", "alphabet": ["a"], "states": ["q0"],
            "initial": "q0", "transitions": [], "final": {"q0": ["abc"]},
        })
        assert "InvalidDegree" in codes_of(text)

    def test_unknown_state_and_symbol(self):
        base = {
            "kind": "nthfa", "alphabet": ["a"], "states": ["q0"],
            "initial": "q0", "transitions": [], "final": {},
        }
        doc = dict(base, initial="ghost")
        assert "UnknownState" in codes_of(json.dumps(doc))
        doc = dict(base, transitions=[{"from": "q0", "symbol": "z",
                                       "to": "q0", "value": ["1"]}])
        assert "UnknownSymbol" in codes_of(json.dumps(doc))
        doc = dict(base, final={"ghost": ["1"]})
        assert "UnknownState" in codes_of(json.dumps(doc))

    def test_duplicate_transition(self):
        row = {"from": "q0", "symbol": "a", "to": "q0", "value": ["1"]}
        text = json.dumps({
            "kind": "nthfa", "alphabet": ["a"], "states": ["q0"],
            "initial": "q0", "transitions": [row, row], "final": {},
        })
        assert "DuplicateTransition" in codes_of(text)

    def test_missing_fields(self):
        assert "InvalidDocument" in codes_of('{"kind": "nthfa"}')

    def test_rows_are_named_by_document_position(self, fixtures_dir):
        """A row skipped for its shape does not shift the numbers of the
        rows after it."""
        text = (fixtures_dir / "two_broken_rows.json").read_text(encoding="utf-8")
        assert [str(d) for d in validate_text(text)] == [
            "InvalidDocument: transition 0: missing field(s) to",
            "UnknownState: transition 1: state 'x' is not declared",
        ]

    def test_row_diagnostics_come_in_row_order(self):
        rows = [{"from": "ghost", "symbol": "a", "to": "q0", "value": ["1"]},
                {"from": "q0", "symbol": "a", "to": "q0"},
                {"from": "q0", "symbol": "z", "to": "q0", "value": ["1"], "note": 1}]
        text = json.dumps({
            "kind": "nthfa", "alphabet": ["a"], "states": ["q0"],
            "initial": "q0", "transitions": rows, "final": {},
        })
        assert [str(d) for d in validate_text(text)] == [
            "UnknownState: transition 0: state 'ghost' is not declared",
            "InvalidDocument: transition 1: missing field(s) value",
            "UnknownSymbol: transition 2: symbol 'z' is not declared",
            "IgnoredField: transition 2: unknown field 'note' ignored",
        ]

    def test_integer_past_the_digit_limit_is_a_syntax_error(self, fixtures_dir):
        """Where the interpreter refuses to convert the integer, the document
        is unparsable; where it converts it, "initial" is not a string."""
        text = (fixtures_dir / "huge_number.json").read_text(encoding="utf-8")
        assert [d.code for d in validate_text(text)] in (["SyntaxError"], ["InvalidDocument"])
        with pytest.raises(DocumentError):
            parse_document(text)

    def test_each_repeated_key_is_an_error_and_the_rest_is_checked(self, fixtures_dir):
        """Which value of a repeated key counts is up to the JSON reader, so
        each key an object repeats is an error, metadata's too, once however
        often it repeats, and every other field is still checked."""
        text = (fixtures_dir / "repeated_key.json").read_text(encoding="utf-8")
        repeats = [f"InvalidDocument: {where}key {key!r} appears more than once in one object"
                   for where, key in (("", "note"), ("transition 0: ", "value"),
                                      ("final: ", "q1"))]
        assert [str(d) for d in validate_text(text)] == repeats
        with pytest.raises(DocumentError) as exc:
            parse_document(text)
        assert [str(d) for d in exc.value.diagnostics] == repeats
        broken = text.replace('"to": "q1"', '"to": "ghost"')
        assert [str(d) for d in validate_text(broken)] == repeats[:2] + [
            "UnknownState: transition 0: state 'ghost' is not declared"] + repeats[2:]
        thrice = '{"kind": "nfa", "kind": "nfa", "kind": "nfa", "alphabet": ["a"], "alphabet": []}'
        assert [str(d) for d in validate_text(thrice)] == [
            "InvalidDocument: key 'kind' appears more than once in one object",
            "InvalidDocument: key 'alphabet' appears more than once in one object",
            "InvalidDocument: alphabet must be non-empty",
            "InvalidDocument: field 'states' must be an array of strings",
            "InvalidDocument: field 'initial' must be a string",
        ]

    def test_a_repeated_key_is_reported_under_the_position_of_its_object(self, fixtures_dir):
        """A repeat in a transition row, the final map, a level row or a
        level's nfa starts with that position, as the other diagnostics of
        the row or field do; one in an object no reader names, the top level
        or metadata, has no position and comes first."""
        text = (fixtures_dir / "repeated_key.json").read_text(encoding="utf-8")
        assert [str(d) for d in validate_text(text)] == [
            "InvalidDocument: key 'note' appears more than once in one object",
            "InvalidDocument: transition 0: key 'value' appears more than once in one object",
            "InvalidDocument: final: key 'q1' appears more than once in one object",
        ]
        nfa = ('{"kind": "nfa", "alphabet": ["a"], "states": ["v0"], "initial": "v0", %s'
               '"transitions": [{"from": "v0", "symbol": "a", %s"to": ["v0"]}], "final": ["v0"]}')
        levels = ('{"kind": "decomposition", "kind": "decomposition", "alphabet": ["a"], '
                  '"levels": [{"k": ["0"], "nfa": ' + nfa % ('"initial": "v0", ', '"symbol": "a", ')
                  + '}, {"k": ["1"], "k": ["1"], "nfa": ' + nfa % ("", "") + "}]}")
        assert [str(d) for d in validate_text(levels)] == [
            "InvalidDocument: key 'kind' appears more than once in one object",
            "InvalidDocument: level 0: key 'initial' appears more than once in one object",
            "InvalidDocument: level 0: transition 0: key 'symbol' appears more than once in one "
            "object",
            "InvalidDocument: level 1: key 'k' appears more than once in one object",
        ]

    def test_parse_document_raises_with_diagnostics(self):
        with pytest.raises(DocumentError) as exc:
            parse_document('{"kind": "nthfa"}')
        assert exc.value.diagnostics


class TestDfaCompletion:
    def _partial(self, states=("q0", "q1"), extra=None):
        doc = {
            "kind": "dfa", "alphabet": ["a", "b"], "states": list(states),
            "initial": "q0",
            "transitions": [{"from": "q0", "symbol": "a", "to": "q1"}],
            "final": ["q1"],
        }
        if extra:
            doc.update(extra)
        return json.dumps(doc)

    def test_partial_map_completed_with_reserved_sink(self):
        result = parse_document(self._partial())
        assert any(w.code == "CompletedWithSink" for w in result.warnings)
        d = result.automaton
        assert d.states == ("q0", "q1", "__sink")
        assert d.delta[("q0", "b")] == "__sink"
        assert d.delta[("__sink", "a")] == "__sink"
        assert "__sink" not in d.finals

    def test_completed_document_round_trips_cleanly(self):
        completed = parse_document(self._partial()).automaton
        roundtrip(completed)

    def test_reserved_name_collision_blocks_completion(self):
        text = self._partial(states=("q0", "q1", "__sink"))
        assert "IncompleteTransition" in codes_of(text)

    def test_total_map_may_use_the_reserved_name(self):
        d = Dfa(["q0", "__sink"], ["a"],
                {("q0", "a"): "__sink", ("__sink", "a"): "__sink"}, "q0", ["q0"])
        roundtrip(d)


class TestKindSpecificRules:
    def test_cdthfa_must_be_total(self):
        text = json.dumps({
            "kind": "cdthfa", "alphabet": ["a"], "states": ["q0", "q1"],
            "initial": "q0",
            "transitions": [{"from": "q0", "symbol": "a", "to": "q1"}],
            "final": {"q1": ["1"]},
        })
        assert "IncompleteTransition" in codes_of(text)

    def test_nfa_target_lists_normalized(self):
        text = json.dumps({
            "kind": "nfa", "alphabet": ["a"], "states": ["q0", "q1"],
            "initial": "q0",
            "transitions": [{"from": "q0", "symbol": "a", "to": ["q1", "q0"]}],
            "final": [],
        })
        result = parse_document(text)
        assert any(w.code == "CanonicalizedValue" for w in result.warnings)
        assert successors(result.automaton, "q0", "a") == frozenset({"q0", "q1"})

    @pytest.mark.parametrize("targets, warnings", [
        (["q1", "q1"], ["duplicate target 'q1' merged"]),
        (["q1", "q0", "q1"], ["duplicate target 'q1' merged",
                              "target list reordered to state order"]),
    ])
    def test_duplicate_targets_merged(self, targets, warnings):
        text = json.dumps({
            "kind": "cnthfa", "alphabet": ["a"], "states": ["q0", "q1"],
            "initial": "q0",
            "transitions": [{"from": "q0", "symbol": "a", "to": targets}],
            "final": {"q1": ["1"]},
        })
        result = parse_document(text)
        assert [str(w) for w in result.warnings] == [
            f"CanonicalizedValue: transition 0: {w}" for w in warnings
        ]
        assert result.automaton.delta[("q0", "a")] == frozenset(targets)

    def test_nfa_repairs_warn_and_serialize_canonically(self):
        text = json.dumps({
            "kind": "nfa", "alphabet": ["a"], "states": ["q"], "initial": "q",
            "final": ["q", "q"],
            "transitions": [{"from": "q", "symbol": "a", "to": []}],
        })
        assert [f"{d.severity}: {d}" for d in validate_text(text)] == [
            "warning: CanonicalizedValue: transition 0: empty target list is omitted "
            "when serializing",
            "warning: CanonicalizedValue: duplicate final state 'q' merged",
        ]
        document = json.loads(serialize_automaton(parse_document(text).automaton))
        assert document["transitions"] == []
        assert document["final"] == ["q"]

    def test_decomposition_level_alphabet_must_match(self, m1):
        doc = json.loads(serialize_automaton(decompose(m1)))
        doc["levels"][0]["nfa"]["alphabet"] = ["z"]
        doc["levels"][0]["nfa"]["transitions"] = []
        assert "AlphabetMismatch" in codes_of(json.dumps(doc))

    def test_decomposition_duplicate_keys_rejected(self, m1):
        doc = json.loads(serialize_automaton(decompose(m1)))
        doc["levels"].append(doc["levels"][0])
        assert "InvalidDocument" in codes_of(json.dumps(doc))

    def test_decomposition_embeds_only_nfa_documents(self, m1):
        doc = json.loads(serialize_automaton(decompose(m1)))
        doc["levels"][0]["nfa"]["kind"] = "dfa"
        assert "InvalidDocument" in codes_of(json.dumps(doc))

    def test_decomposition_diagnostics_name_their_level(self):
        # Every broken level is reported, not just the first one.
        doc = json.loads((Path(__file__).parent / "fixtures" / "levels.json").read_text("utf-8"))
        for level in doc["levels"][:2]:
            level["nfa"]["transitions"][0]["symbol"] = "z"
        assert [str(d) for d in validate_text(json.dumps(doc))] == [
            f"UnknownSymbol: level {i}: transition 0: symbol 'z' is not declared"
            for i in range(2)
        ]


def _ring_cnthfa_text(n: int) -> str:
    """A cnthfa document on ``n`` states where state i steps to i+1 and i+2."""
    states = [f"q{i}" for i in range(n)]
    rows = [{"from": q, "symbol": "a", "to": [states[(i + 1) % n], states[(i + 2) % n]]}
            for i, q in enumerate(states)]
    return json.dumps({"kind": "cnthfa", "alphabet": ["a"], "states": states,
                       "initial": "q0", "transitions": rows, "final": {"q0": ["1"]}})


def test_parse_and_serialize_grow_linearly_in_states():
    """8 times the states takes well under 16 times as long to parse and
    serialize; growth quadratic in the states would make it about 64."""
    def seconds(text):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            serialize_automaton(parse_document(text).automaton)
            best = min(best, time.perf_counter() - start)
        return best

    small, large = _ring_cnthfa_text(500), _ring_cnthfa_text(4000)
    assert seconds(large) < 16 * seconds(small)


class TestValidateText:
    def test_clean_document_has_no_diagnostics(self, m1):
        assert validate_text(serialize_automaton(m1)) == []

    def test_errors_come_before_warnings(self):
        text = json.dumps({
            "kind": "nthfa", "alphabet": ["a"], "states": ["q0"],
            "initial": "ghost", "transitions": [], "final": {"q0": ["0.5"]},
        })
        diagnostics = validate_text(text)
        severities = [d.severity for d in diagnostics]
        assert severities == sorted(severities)  # error < warning


GOLDEN_DIAGNOSTICS = Path(__file__).parent / "golden_diagnostics.json"
GOLDEN_FIXTURES = ("m1", "crisp", "det", "classic_dfa", "classic_nfa", "levels")
# Values put in place of a top-level field, of a row field, and of a THFE.
WRONG_FIELD_VALUES = (None, 1, "x", [], {}, [1])
WRONG_ROW_VALUES = (1, None, "ghost", "z", ["ghost"], [1])
WRONG_DEGREES = (["0"], ["1/0"], ["3/2"], ["abc"], [0.5], ["1/2", "2/4", "0.5"])
DELETE = object()


def _replaced(doc: dict, path: tuple, value) -> dict:
    """A deep copy of ``doc`` with the item at ``path`` set to ``value``, or
    deleted when ``value`` is DELETE."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def _thfe_slots(doc: dict) -> list[tuple]:
    """Paths of the first transition weight, first final value and first level key."""
    slots = []
    rows = doc.get("transitions") or doc.get("levels")
    if "value" in rows[0]:
        slots.append(("transitions", 0, "value"))
    if "k" in rows[0]:
        slots.append(("levels", 0, "k"))
    if isinstance(doc.get("final"), dict) and doc["final"]:
        slots.append(("final", next(iter(doc["final"]))))
    return slots


def document_mutations(doc: dict):
    """(label, document) pairs: ``doc`` with one or two fields broken, a row
    broken or repeated, target lists reordered or repeated, or a degree
    misspelled.  A decomposition also gets every mutation of its first
    embedded nfa."""
    fields = list(doc) + ["metadata"] * ("metadata" not in doc)
    for key in fields:
        if key in doc:
            yield f"delete {key}", _replaced(doc, (key,), DELETE)
        for value in WRONG_FIELD_VALUES:
            yield f"{key} = {json.dumps(value)}", _replaced(doc, (key,), value)
    yield "unknown field", _replaced(doc, ("comment",), "hi")
    for first, second in itertools.combinations(fields[1:], 2):
        yield f"{first} = 1, {second} = 1", dict(doc, **{first: 1, second: 1})
    rows_key = "transitions" if "transitions" in doc else "levels"
    rows = doc[rows_key]
    yield "unknown row field", _replaced(doc, (rows_key, 0, "note"), 1)
    yield "row = 1", _replaced(doc, (rows_key, 0), 1)
    yield "duplicated row", _replaced(doc, (rows_key,), rows + rows[:1])
    for key in rows[0]:
        yield f"delete row {key}", _replaced(doc, (rows_key, 0, key), DELETE)
        for value in WRONG_ROW_VALUES:
            yield f"row {key} = {json.dumps(value)}", _replaced(doc, (rows_key, 0, key), value)
    for i, row in enumerate(rows):
        targets = row.get("to")
        if not isinstance(targets, list):
            continue
        path = (rows_key, i, "to")
        if len(targets) > 1:
            yield f"row {i} targets reversed", _replaced(doc, path, targets[::-1])
        yield f"row {i} targets doubled", _replaced(doc, path, targets + targets)
        yield f"row {i} first target twice", _replaced(doc, path, targets[:1] + targets)
    for path in _thfe_slots(doc):
        for degrees in WRONG_DEGREES:
            label = " ".join(map(str, path))
            yield f"{label} = {json.dumps(degrees)}", _replaced(doc, path, degrees)
    if rows_key == "levels":
        for label, nfa in document_mutations(rows[0]["nfa"]):
            yield f"levels 0 nfa: {label}", _replaced(doc, ("levels", 0, "nfa"), nfa)


def golden_diagnostics() -> list[dict]:
    """Every diagnostic, and the serialization where the document parses,
    of each mutation of each GOLDEN_FIXTURES document."""
    entries = []
    for name in GOLDEN_FIXTURES:
        path = Path(__file__).parent / "fixtures" / f"{name}.json"
        for label, doc in document_mutations(json.loads(path.read_text(encoding="utf-8"))):
            text = json.dumps(doc)
            try:
                document = serialize_automaton(parse_document(text).automaton)
            except DocumentError:
                document = None
            entries.append({
                "fixture": name,
                "mutation": label,
                "diagnostics": [f"{d.severity}: {d}" for d in validate_text(text)],
                "document": document,
            })
    return entries


def test_diagnostics_match_golden():
    """Malformed documents get exactly the diagnostics golden_diagnostics.json
    records, and parsed ones the same serialization.  After an intended
    change, rewrite the file with ``PYTHONPATH=src python tests/test_documents.py``."""
    expected = json.loads(GOLDEN_DIAGNOSTICS.read_text(encoding="utf-8"))
    actual = golden_diagnostics()
    labels = [(e["fixture"], e["mutation"]) for e in actual]
    assert len(set(labels)) == len(labels)
    assert labels == [(e["fixture"], e["mutation"]) for e in expected]
    for got, want in zip(actual, expected):
        assert got == want, f"{want['fixture']}: {want['mutation']} changed"


if __name__ == "__main__":
    GOLDEN_DIAGNOSTICS.write_text(
        json.dumps(golden_diagnostics(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
