"""JSON exchange format for automata and level decompositions.

Documents use JSON objects, arrays, and strings only.  Rationals travel as
strings ("1/2", "0.35"), never as native numbers, so degrees survive the
round trip exactly.  Serialization is canonical: fixed key order, transitions
sorted by declaration order of states and symbols, final entries in state
order with {0} entries omitted.  Parsing a canonical document and serializing
the result is byte-identical.

One table, _KINDS, says what the document of each automaton kind holds: one
target or a target list per transition, a THFE weight or none, and a final
map of THFEs with metadata (the hesitant kinds) or a list of accepting
states.  One parser and one serializer read it for every kind, the nfa levels
of a decomposition included.  Fields are checked in one order for every
kind: header, transitions, final, metadata.  A broken header ends the check;
every later field is checked even when an earlier one failed.

The structural rules live with the constructors, as checkers that yield
every break (classic for headers, names and totality, hesitant for final
maps, constructions for levels).  The parser adds the checks of JSON shape,
reports every break that a rule's checker yields, and puts the position in
the document in front ("transition 3: ", "level 1: ").  Each transition row
is read once, every check of it in one pass, so the diagnostics of the rows
come in row order.  Text that is not JSON, nested too deep, or holding an
integer too long to convert is a SyntaxError; an object that repeats a key
is an InvalidDocument error, since which value counts is up to the reader.

Parsing reports problems as Diagnostic values.  parse_document raises
DocumentError when any error-level diagnostic occurs and otherwise returns
the automaton together with the warnings (non-canonical spellings that were
repaired, ignored fields, sink completion).  validate_text returns all
diagnostics without raising.
"""

from __future__ import annotations

import json
from typing import Callable, Collection, Iterable, NamedTuple

from .classic import Dfa, Nfa, alphabet_errors, state_errors, totality_errors, undeclared
from .constructions import LevelDecomposition, level_errors
from .errors import DegreeOutOfRange, HfaError, InvalidAutomaton, InvalidDegree
from .hesitant import Cdthfa, Cnthfa, Nthfa
from .hfe import ZERO, Thfe, _trusted, format_degree, parse_degree

__all__ = [
    "DFA_SINK_NAME",
    "Diagnostic",
    "DocumentError",
    "ParseResult",
    "parse_document",
    "validate_text",
    "serialize_automaton",
    "kind_name",
]

# Reserved for completing partial DFA documents with a dead state.
DFA_SINK_NAME = "__sink"

Automaton = Dfa | Nfa | Nthfa | Cnthfa | Cdthfa | LevelDecomposition


class _Kind(NamedTuple):
    """What a document of one automaton kind holds."""

    name: str
    cls: type
    multi_target: bool  # a transition's "to" is a list of states, not one state
    weighted: bool  # a transition carries a THFE "value"
    hesitant: bool  # "final" maps states to THFEs and "metadata" is allowed


# The only place that knows which automaton kinds exist.
_KINDS = {
    kind.name: kind
    for kind in (
        _Kind("dfa", Dfa, multi_target=False, weighted=False, hesitant=False),
        _Kind("nfa", Nfa, multi_target=True, weighted=False, hesitant=False),
        _Kind("nthfa", Nthfa, multi_target=False, weighted=True, hesitant=True),
        _Kind("cnthfa", Cnthfa, multi_target=True, weighted=False, hesitant=True),
        _Kind("cdthfa", Cdthfa, multi_target=False, weighted=False, hesitant=True),
    )
}
KINDS = (*_KINDS, "decomposition")


class Diagnostic(NamedTuple):
    """One parse-time finding; ``line`` is set for JSON syntax errors only."""

    code: str
    message: str
    line: int | None = None
    severity: str = "error"

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line is not None else ""
        return f"{self.code}{where}: {self.message}"


class DocumentError(HfaError, ValueError):
    """Raised by parse_document when a document has error-level diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class ParseResult(NamedTuple):
    automaton: Automaton
    warnings: tuple[Diagnostic, ...]


class _Object(dict):
    """A JSON object that repeats a key: ``repeated`` holds each such key
    once, until a reader reports them."""

    repeated: list[str]


class _Report:
    """The errors and warnings found while parsing one document."""

    def __init__(self, prefix: str = ""):
        self.errors: list[Diagnostic] = []
        self.warnings: list[Diagnostic] = []
        self.prefix = prefix  # put before every message, e.g. "level 1: "

    def error(self, code: str, message: str, line: int | None = None) -> None:
        self.errors.append(Diagnostic(code, self.prefix + message, line))

    def warn(self, code: str, message: str) -> None:
        self.warnings.append(Diagnostic(code, self.prefix + message, severity="warning"))

    def add(self, errors: Iterable[HfaError], where: str = "") -> None:
        """Report each of ``errors`` after ``where``, coded by its class, or
        InvalidDocument for a broken structural rule."""
        for exc in errors:
            code = "InvalidDocument" if isinstance(exc, InvalidAutomaton) else type(exc).__name__
            self.error(code, where + exc.args[0])

    def repeats(self, obj: object, where: str = "") -> None:
        """Report each key the JSON object ``obj`` repeats after ``where``,
        unless that was done before."""
        if isinstance(obj, _Object):
            for key in obj.repeated:
                self.error("InvalidDocument",
                           f"{where}key {key!r} appears more than once in one object")
            obj.repeated = []


def parse_document(text: str) -> ParseResult:
    """Parse one document; raises DocumentError unless it is well-formed."""
    automaton, report = _parse(text)
    if report.errors:
        raise DocumentError(report.errors)
    assert automaton is not None
    return ParseResult(automaton, tuple(report.warnings))


def validate_text(text: str) -> list[Diagnostic]:
    """All diagnostics for the document, errors first; empty means clean."""
    _, report = _parse(text)
    return report.errors + report.warnings


def _parse(text: str) -> tuple[Automaton | None, _Report]:
    report = _Report()
    repeating: list[_Object] = []

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [p[0] for p in pairs]
            obj = _Object(obj)
            obj.repeated = [k for k in obj if keys.count(k) > 1]
            repeating.append(obj)
        return obj
    try:
        raw = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        report.error("SyntaxError", exc.msg, line=exc.lineno)
        return None, report
    except RecursionError:
        report.error("SyntaxError", "nesting is too deep to parse")
        return None, report
    except ValueError:  # an integer with more digits than int() converts
        report.error("SyntaxError", "a number has too many digits to parse")
        return None, report
    automaton = None
    if not isinstance(raw, dict):
        report.error("InvalidDocument", "top-level value must be an object")
    elif (kind := raw.get("kind")) not in KINDS:
        report.error("InvalidDocument",
                     f"field 'kind' must be one of {', '.join(KINDS)}, got {kind!r}")
    elif kind == "decomposition":
        automaton = _parse_decomposition(raw, report)
    else:
        automaton = _parse_automaton(_KINDS[kind], raw, report)
    # Each reader reports the repeats of the rows and fields it reads under
    # their positions; the rest, such as the top level's, come first.
    unnamed = _Report()
    for obj in repeating:
        unnamed.repeats(obj)
    report.errors[:0] = unnamed.errors
    return (None, report) if report.errors else (automaton, report)


def _string_list(
    raw: dict, key: str, report: _Report, rules: Callable = lambda names: ()
) -> list[str] | None:
    """Field ``key`` as an array of strings, each break of ``rules`` reported."""
    value = raw.get(key)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        report.error("InvalidDocument", f"field {key!r} must be an array of strings")
        return None
    report.add(rules(value))
    return value


def _check_header(
    raw: dict, report: _Report
) -> tuple[list[str], dict[str, int], str] | None:
    """Validate alphabet, states, and initial; shared by all automaton kinds."""
    alphabet = _string_list(raw, "alphabet", report, alphabet_errors)
    states = _string_list(raw, "states", report, state_errors)
    initial = raw.get("initial")
    if not isinstance(initial, str):
        report.error("InvalidDocument", "field 'initial' must be a string")
    elif states is not None:
        report.add(undeclared("initial state", (initial,), states))
    if report.errors or alphabet is None or states is None:
        return None
    return alphabet, {q: i for i, q in enumerate(states)}, initial


def _warn_unknown_fields(raw: dict, known: tuple[str, ...], report: _Report) -> None:
    for key in raw:
        if key not in known:
            report.warn("IgnoredField", f"unknown field {key!r} was ignored")


def _parse_thfe(value, where: str, report: _Report) -> Thfe | None:
    if not isinstance(value, list) or not value:
        report.error(
            "InvalidDocument",
            f"{where}: a value must be a non-empty array of rational strings",
        )
        return None
    degrees = set()
    ok = True
    for item in value:
        if not isinstance(item, str):
            report.error(
                "InvalidDocument",
                f"{where}: rationals must be strings, got {item!r}",
            )
            ok = False
            continue
        try:
            degrees.add(parse_degree(item))
        except (DegreeOutOfRange, InvalidDegree) as exc:
            report.add([exc], f"{where}: ")
            ok = False
    if not ok:
        return None
    # Each degree is parsed once: the canonical tuple is wrapped as it is.
    thfe = _trusted(tuple(sorted(degrees)))
    canonical = _thfe_json(thfe)
    if canonical != value:
        report.warn(
            "CanonicalizedValue",
            f"{where}: {value} was canonicalized to {canonical}",
        )
    return thfe


def _check_name(
    row: dict, key: str, declared: Collection[str], where: str, report: _Report
) -> str | None:
    """The row field ``key``: a declared symbol if it is "symbol", else a state."""
    name = row[key]
    if not isinstance(name, str):
        report.error("InvalidDocument", f"{where}: field {key!r} must be a string")
        return None
    if name in declared:
        return name
    noun = "symbol" if key == "symbol" else "state"
    report.add(undeclared(noun, (name,), declared, f"{where}: "))
    return None


def _parse_final_list(
    raw: dict, states: dict[str, int], report: _Report
) -> set[str] | None:
    finals = _string_list(raw, "final", report)
    if finals is None:
        return None
    report.add(undeclared("final state", finals, states))
    seen: set[str] = set()
    for name in finals:
        if name in seen and name in states:
            report.warn("CanonicalizedValue", f"duplicate final state {name!r} merged")
        seen.add(name)
    return seen


def _parse_final_map(
    raw: dict, states: dict[str, int], report: _Report
) -> dict[str, Thfe] | None:
    finals = raw.get("final")
    if not isinstance(finals, dict):
        report.error("InvalidDocument", "field 'final' must be an object")
        return None
    report.repeats(finals, "final: ")
    result: dict[str, Thfe] = {}
    for name, value in finals.items():
        if name not in states:
            report.add(undeclared("final map state", (name,), states))
            continue
        thfe = _parse_thfe(value, f"final[{name!r}]", report)
        if thfe is None:
            continue
        if thfe == ZERO:
            report.warn(
                "CanonicalizedValue",
                f"final[{name!r}]: explicit {{0}} entries are omitted when serializing",
            )
        result[name] = thfe
    return result


def _build(factory: Callable[[], Automaton], report: _Report) -> Automaton | None:
    # The constructors apply the same rules; whatever they still raise is reported.
    try:
        return factory()
    except HfaError as exc:
        report.add([exc])
    return None


_HEADER_FIELDS = ("kind", "alphabet", "states", "initial", "transitions", "final")


def _parse_automaton(kind: _Kind, raw: dict, report: _Report) -> Automaton | None:
    """Parse a document of one automaton kind, its fields in the one order."""
    known = _HEADER_FIELDS + ("metadata",) if kind.hesitant else _HEADER_FIELDS
    _warn_unknown_fields(raw, known, report)
    header = _check_header(raw, report)
    if header is None:
        return None
    alphabet, states, initial = header
    delta = _parse_transitions(kind, raw, alphabet, states, report)
    parse_final = _parse_final_map if kind.hesitant else _parse_final_list
    finals = parse_final(raw, states, report)
    # The hesitant classes take the metadata as one more argument.
    extra = (_parse_metadata(raw, report),) if kind.hesitant else ()
    if report.errors:
        return None
    if not kind.multi_target and not kind.weighted:
        states = _complete_delta(kind, delta, alphabet, states, report)
    if report.errors:
        return None
    return _build(
        lambda: kind.cls(list(states), alphabet, delta, initial, finals, *extra), report
    )


def _parse_transitions(
    kind: _Kind, raw: dict, alphabet: list[str], states: dict[str, int], report: _Report
) -> dict | None:
    """The transition map of a ``kind`` document: (from, symbol) to a target
    or a target list, or, for weighted kinds, (from, symbol, to) to a THFE.
    Each row is read once, and named by its position in the document."""
    rows = raw.get("transitions")
    if not isinstance(rows, list):
        report.error("InvalidDocument", "field 'transitions' must be an array")
        return None
    keys = ("from", "symbol", "to", "value") if kind.weighted else ("from", "symbol", "to")
    delta: dict = {}
    for i, row in enumerate(rows):
        where = f"transition {i}"
        if not isinstance(row, dict):
            report.error("InvalidDocument", f"{where}: must be an object")
            continue
        report.repeats(row, f"{where}: ")
        if missing := [k for k in keys if k not in row]:
            report.error("InvalidDocument", f"{where}: missing field(s) {', '.join(missing)}")
            continue
        for key in row:
            if key not in keys:
                report.warn("IgnoredField", f"{where}: unknown field {key!r} ignored")
        source = _check_name(row, "from", states, where, report)
        symbol = _check_name(row, "symbol", alphabet, where, report)
        target = row["to"]
        if not kind.multi_target:
            target = _check_name(row, "to", states, where, report)
        elif not isinstance(target, list) or not all(isinstance(t, str) for t in target):
            report.error("InvalidDocument", f"{where}: field 'to' must be an array of states")
            target = None
        # What the map stores: the weight, or else the target itself.
        value = _parse_thfe(row["value"], where, report) if kind.weighted else target
        if source is None or symbol is None or target is None or value is None:
            continue
        if kind.multi_target and not states.keys() >= set(target):
            report.add(undeclared("state", target, states, f"{where}: "))
            continue
        key = (source, symbol, target) if kind.weighted else (source, symbol)
        if key in delta:
            noun = "value" if kind.weighted else "transition"
            report.error("DuplicateTransition", f"{where}: second {noun} for {key!r}")
            continue
        if kind.multi_target:
            value = _canonical_targets(value, states, where, report)
        elif kind.weighted and value == ZERO:
            report.warn(
                "CanonicalizedValue",
                f"{where}: value {{0}} is the default and is omitted when serializing",
            )
        delta[key] = value
    return delta


def _canonical_targets(
    targets: list[str], states: dict[str, int], where: str, report: _Report
) -> list[str]:
    """The target list in state order without repeats; each repair is a warning."""
    if not targets:
        report.warn(
            "CanonicalizedValue",
            f"{where}: empty target list is omitted when serializing",
        )
    seen: set[str] = set()
    for t in targets:
        if t in seen:
            report.warn("CanonicalizedValue", f"{where}: duplicate target {t!r} merged")
        seen.add(t)
    ordered = sorted(seen, key=states.__getitem__)
    if ordered != list(dict.fromkeys(targets)):
        report.warn(
            "CanonicalizedValue",
            f"{where}: target list reordered to state order",
        )
    return ordered


def _complete_delta(
    kind: _Kind, delta: dict, alphabet: list[str], states: dict[str, int], report: _Report
) -> dict[str, int]:
    """The states of a single-target map once it is total: a cdthfa map must
    be total already, a partial dfa map gets the reserved dead state."""
    if kind.hesitant:
        for exc in totality_errors(delta, states, alphabet):
            report.error("IncompleteTransition", f"{exc}; cdthfa documents must be total")
        return states
    missing = [(q, a) for q in states for a in alphabet if (q, a) not in delta]
    if not missing:
        return states
    if DFA_SINK_NAME in states:
        report.error(
            "IncompleteTransition",
            f"transition map is partial and the reserved completion state "
            f"{DFA_SINK_NAME!r} is already taken: first missing {missing[0]!r}",
        )
        return states
    report.warn(
        "CompletedWithSink",
        f"{len(missing)} missing transition(s) routed to {DFA_SINK_NAME!r}",
    )
    for q, a in missing:
        delta[(q, a)] = DFA_SINK_NAME
    for a in alphabet:
        delta[(DFA_SINK_NAME, a)] = DFA_SINK_NAME
    return {**states, DFA_SINK_NAME: len(states)}


def _parse_metadata(raw: dict, report: _Report) -> dict | None:
    metadata = raw.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        report.error("InvalidDocument", "field 'metadata' must be an object")
    return metadata


def _parse_decomposition(raw: dict, report: _Report) -> LevelDecomposition | None:
    _warn_unknown_fields(raw, ("kind", "alphabet", "levels"), report)
    alphabet = _string_list(raw, "alphabet", report, alphabet_errors)
    rows = raw.get("levels")
    if not isinstance(rows, list):
        report.error("InvalidDocument", "field 'levels' must be an array")
        return None
    if report.errors:
        return None
    levels: list[tuple[Thfe, Nfa]] = []
    # The level rules see each level as soon as it is parsed, so the
    # diagnostics stay in level order.
    report.add(level_errors(alphabet, _parse_levels(rows, levels, report)))
    if report.errors:
        return None
    return _build(lambda: LevelDecomposition(alphabet, levels), report)


def _parse_levels(rows: list, levels: list, report: _Report):
    """Each parsed level as (its number, (key, nfa)), also added to ``levels``."""
    for i, row in enumerate(rows):
        where = f"level {i}"
        report.repeats(row, f"{where}: ")
        if not isinstance(row, dict) or "k" not in row or "nfa" not in row:
            report.error(
                "InvalidDocument", f"{where}: must be an object with 'k' and 'nfa'"
            )
            continue
        key = _parse_thfe(row["k"], where, report)
        embedded = row["nfa"]
        report.repeats(embedded, f"{where}: ")
        if not isinstance(embedded, dict) or embedded.get("kind") != "nfa":
            report.error(
                "InvalidDocument", f"{where}: field 'nfa' must be an nfa document"
            )
            continue
        # A report of its own, so that one broken level hides nothing in the next.
        level = _Report(prefix=f"{where}: ")
        nfa = _parse_automaton(_KINDS["nfa"], embedded, level)
        report.errors += level.errors
        report.warnings += level.warnings
        if key is not None and nfa is not None:
            levels.append((key, nfa))
            yield i, (key, nfa)


def _thfe_json(value: Thfe) -> list[str]:
    return [format_degree(d) for d in value]


def _sorted_tree(value):
    """Metadata is free-form; sort its object keys so output is canonical."""
    if isinstance(value, dict):
        return {k: _sorted_tree(value[k]) for k in sorted(value)}
    if isinstance(value, list):
        return [_sorted_tree(v) for v in value]
    return value


def _transitions_json(kind: _Kind, x: Automaton) -> list[dict]:
    state_index = {q: i for i, q in enumerate(x.states)}
    if kind.weighted:
        symbol_index = {a: i for i, a in enumerate(x.alphabet)}
        return [
            {"from": q, "symbol": a, "to": p, "value": _thfe_json(x.psi[(q, a, p)])}
            for q, a, p in sorted(
                x.psi, key=lambda t: (state_index[t[0]], symbol_index[t[1]], state_index[t[2]])
            )
        ]
    rows = []
    for q in x.states:
        for a in x.alphabet:
            targets = x.delta.get((q, a))
            if not kind.multi_target:
                rows.append({"from": q, "symbol": a, "to": targets})
            elif targets:
                ordered = sorted(targets, key=state_index.__getitem__)
                rows.append({"from": q, "symbol": a, "to": ordered})
    return rows


def kind_name(x: object) -> str:
    """The document kind of ``x``; its class name when it has none."""
    if isinstance(x, LevelDecomposition):
        return "decomposition"
    names = (kind.name for kind in _KINDS.values() if isinstance(x, kind.cls))
    return next(names, type(x).__name__)


def _document_of(x: Automaton) -> dict:
    if isinstance(x, LevelDecomposition):
        return {
            "kind": "decomposition",
            "alphabet": list(x.alphabet),
            "levels": [
                {"k": _thfe_json(key), "nfa": _document_of(nfa)}
                for key, nfa in x.levels
            ],
        }
    kind = _KINDS.get(kind_name(x))
    if kind is None:
        raise TypeError(f"cannot serialize {type(x).__name__}")
    doc = {
        "kind": kind.name,
        "alphabet": list(x.alphabet),
        "states": list(x.states),
        "initial": x.initial,
        "transitions": _transitions_json(kind, x),
    }
    if not kind.hesitant:
        doc["final"] = [q for q in x.states if q in x.finals]
        return doc
    doc["final"] = {
        q: _thfe_json(x.final_map[q]) for q in x.states if x.final_map[q] != ZERO
    }
    if x.metadata:
        doc["metadata"] = _sorted_tree(x.metadata)
    return doc


def serialize_automaton(x: Automaton) -> str:
    """Canonical JSON text of an automaton or decomposition, newline-terminated."""
    return json.dumps(_document_of(x), indent=2, ensure_ascii=False) + "\n"
