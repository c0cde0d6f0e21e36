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

Parsing reports problems as Diagnostic values.  parse_document raises
DocumentError when any error-level diagnostic occurs and otherwise returns
the automaton together with the warnings (non-canonical spellings that were
repaired, ignored fields, sink completion).  validate_text returns all
diagnostics without raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .classic import WORD_SEPARATOR, Dfa, Nfa
from .constructions import LevelDecomposition
from .errors import DegreeOutOfRange, HfaError, InvalidDegree
from .hesitant import Cdthfa, Cnthfa, Nthfa
from .hfe import ZERO, Thfe, format_degree, parse_degree

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


@dataclass(frozen=True)
class Diagnostic:
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


@dataclass(frozen=True)
class ParseResult:
    automaton: Automaton
    warnings: tuple[Diagnostic, ...]


@dataclass
class _Report:
    errors: list[Diagnostic] = field(default_factory=list)
    warnings: list[Diagnostic] = field(default_factory=list)

    def error(self, code: str, message: str, line: int | None = None) -> None:
        self.errors.append(Diagnostic(code, message, line))

    def warn(self, code: str, message: str) -> None:
        self.warnings.append(Diagnostic(code, message, severity="warning"))


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
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        report.error("SyntaxError", exc.msg, line=exc.lineno)
        return None, report
    except RecursionError:
        report.error("SyntaxError", "nesting is too deep to parse")
        return None, report
    if not isinstance(raw, dict):
        report.error("InvalidDocument", "top-level value must be an object")
        return None, report
    kind = raw.get("kind")
    if kind not in KINDS:
        report.error(
            "InvalidDocument",
            f"field 'kind' must be one of {', '.join(KINDS)}, got {kind!r}",
        )
        return None, report
    if kind == "decomposition":
        automaton = _parse_decomposition(raw, report)
    else:
        automaton = _parse_automaton(_KINDS[kind], raw, report)
    return (None, report) if report.errors else (automaton, report)


def _string_list(raw: dict, key: str, report: _Report) -> list[str] | None:
    value = raw.get(key)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        report.error("InvalidDocument", f"field {key!r} must be an array of strings")
        return None
    return value


def _check_alphabet_field(raw: dict, report: _Report) -> list[str] | None:
    alphabet = _string_list(raw, "alphabet", report)
    if alphabet is None:
        return None
    if not alphabet:
        report.error("InvalidDocument", "alphabet must be non-empty")
        return None
    seen: set[str] = set()
    for s in alphabet:
        if not s or any(c.isspace() for c in s) or WORD_SEPARATOR in s:
            report.error(
                "InvalidDocument",
                f"alphabet symbol {s!r} must be non-empty and free of "
                f"whitespace and {WORD_SEPARATOR!r}",
            )
        elif s in seen:
            report.error("InvalidDocument", f"duplicate alphabet symbol {s!r}")
        seen.add(s)
    return None if report.errors else alphabet


def _check_header(
    raw: dict, report: _Report
) -> tuple[list[str], list[str], str] | None:
    """Validate alphabet, states, and initial; shared by all automaton kinds."""
    alphabet = _check_alphabet_field(raw, report)
    states = _string_list(raw, "states", report)
    initial = raw.get("initial")
    if states is not None:
        if not states:
            report.error("InvalidDocument", "state list must be non-empty")
        seen: set[str] = set()
        for name in states:
            if not name:
                report.error("InvalidDocument", "state names must be non-empty")
            elif name in seen:
                report.error("InvalidDocument", f"duplicate state name {name!r}")
            seen.add(name)
    if not isinstance(initial, str):
        report.error("InvalidDocument", "field 'initial' must be a string")
    elif states is not None and initial not in states:
        report.error("UnknownState", f"initial state {initial!r} is not declared")
    if report.errors or alphabet is None or states is None:
        return None
    return alphabet, states, str(initial)


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
    degrees = []
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
            degrees.append(parse_degree(item))
        except (DegreeOutOfRange, InvalidDegree) as exc:
            report.error(type(exc).__name__, f"{where}: {exc}")
            ok = False
    if not ok:
        return None
    thfe = Thfe(degrees)
    canonical = [format_degree(d) for d in thfe]
    if canonical != value:
        report.warn(
            "CanonicalizedValue",
            f"{where}: {value} was canonicalized to {canonical}",
        )
    return thfe


def _transition_rows(
    raw: dict, keys: tuple[str, ...], report: _Report
) -> list[dict] | None:
    rows = raw.get("transitions")
    if not isinstance(rows, list):
        report.error("InvalidDocument", "field 'transitions' must be an array")
        return None
    usable = []
    for i, row in enumerate(rows):
        where = f"transition {i}"
        if not isinstance(row, dict):
            report.error("InvalidDocument", f"{where}: must be an object")
            continue
        missing = [k for k in keys if k not in row]
        if missing:
            report.error(
                "InvalidDocument", f"{where}: missing field(s) {', '.join(missing)}"
            )
            continue
        for key in row:
            if key not in keys:
                report.warn("IgnoredField", f"{where}: unknown field {key!r} ignored")
        usable.append(row)
    return usable


def _check_name(
    row: dict, key: str, declared: list[str], where: str, report: _Report
) -> str | None:
    """The row field ``key``: a declared symbol if it is "symbol", else a state."""
    name = row[key]
    if not isinstance(name, str):
        report.error("InvalidDocument", f"{where}: field {key!r} must be a string")
        return None
    if name not in declared:
        code, noun = ("UnknownSymbol", "symbol") if key == "symbol" else ("UnknownState", "state")
        report.error(code, f"{where}: {noun} {name!r} is not declared")
        return None
    return name


def _parse_final_list(
    raw: dict, states: list[str], report: _Report
) -> set[str] | None:
    finals = _string_list(raw, "final", report)
    if finals is None:
        return None
    seen: set[str] = set()
    for name in finals:
        if name not in states:
            report.error("UnknownState", f"final state {name!r} is not declared")
        elif name in seen:
            report.warn("CanonicalizedValue", f"duplicate final state {name!r} merged")
        seen.add(name)
    return seen


def _parse_final_map(
    raw: dict, states: list[str], report: _Report
) -> dict[str, Thfe] | None:
    finals = raw.get("final")
    if not isinstance(finals, dict):
        report.error("InvalidDocument", "field 'final' must be an object")
        return None
    result: dict[str, Thfe] = {}
    for name, value in finals.items():
        if name not in states:
            report.error("UnknownState", f"final map state {name!r} is not declared")
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
    # Classes re-validate; anything that still slips through becomes a diagnostic.
    try:
        return factory()
    except HfaError as exc:
        report.error(type(exc).__name__, str(exc))
    except ValueError as exc:
        report.error("InvalidDocument", str(exc))
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
        lambda: kind.cls(states, alphabet, delta, initial, finals, *extra), report
    )


def _parse_transitions(
    kind: _Kind, raw: dict, alphabet: list[str], states: list[str], report: _Report
) -> dict | None:
    """The transition map of a ``kind`` document: (from, symbol) to a target
    or a target list, or, for weighted kinds, (from, symbol, to) to a THFE."""
    keys = ("from", "symbol", "to", "value") if kind.weighted else ("from", "symbol", "to")
    rows = _transition_rows(raw, keys, report)
    if rows is None:
        return None
    delta: dict = {}
    for i, row in enumerate(rows):
        where = f"transition {i}"
        source = _check_name(row, "from", states, where, report)
        symbol = _check_name(row, "symbol", alphabet, where, report)
        if kind.multi_target:
            target = _check_target_list(row, where, report)
        else:
            target = _check_name(row, "to", states, where, report)
        # What the map stores: the weight, or else the target itself.
        value = _parse_thfe(row["value"], where, report) if kind.weighted else target
        if source is None or symbol is None or target is None or value is None:
            continue
        if kind.multi_target and _undeclared_targets(target, states, where, report):
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


def _check_target_list(row: dict, where: str, report: _Report) -> list[str] | None:
    targets = row["to"]
    if isinstance(targets, list) and all(isinstance(t, str) for t in targets):
        return targets
    report.error("InvalidDocument", f"{where}: field 'to' must be an array of states")
    return None


def _undeclared_targets(
    targets: list[str], states: list[str], where: str, report: _Report
) -> bool:
    """Report each target that is not a declared state; True if there is one."""
    unknown = [t for t in targets if t not in states]
    for t in unknown:
        report.error("UnknownState", f"{where}: state {t!r} is not declared")
    return bool(unknown)


def _canonical_targets(
    targets: list[str], states: list[str], where: str, report: _Report
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
    ordered = [q for q in states if q in seen]
    if ordered != list(dict.fromkeys(targets)):
        report.warn(
            "CanonicalizedValue",
            f"{where}: target list reordered to state order",
        )
    return ordered


def _complete_delta(
    kind: _Kind, delta: dict, alphabet: list[str], states: list[str], report: _Report
) -> list[str]:
    """The states of a single-target map once it is total: a cdthfa map must
    be total already, a partial dfa map gets the reserved dead state."""
    missing = [(q, a) for q in states for a in alphabet if (q, a) not in delta]
    if not missing:
        return states
    if kind.hesitant:
        for q, a in missing:
            report.error(
                "IncompleteTransition",
                f"no transition for ({q!r}, {a!r}); cdthfa documents must be total",
            )
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
    return states + [DFA_SINK_NAME]


def _parse_metadata(raw: dict, report: _Report) -> dict | None:
    metadata = raw.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        report.error("InvalidDocument", "field 'metadata' must be an object")
    return metadata


def _parse_decomposition(raw: dict, report: _Report) -> LevelDecomposition | None:
    _warn_unknown_fields(raw, ("kind", "alphabet", "levels"), report)
    alphabet = _check_alphabet_field(raw, report)
    rows = raw.get("levels")
    if not isinstance(rows, list):
        report.error("InvalidDocument", "field 'levels' must be an array")
        return None
    if alphabet is None:
        return None
    levels: list[tuple[Thfe, Nfa]] = []
    seen: set[Thfe] = set()
    for i, row in enumerate(rows):
        where = f"level {i}"
        if not isinstance(row, dict) or "k" not in row or "nfa" not in row:
            report.error(
                "InvalidDocument", f"{where}: must be an object with 'k' and 'nfa'"
            )
            continue
        key = _parse_thfe(row["k"], where, report)
        embedded = row["nfa"]
        if not isinstance(embedded, dict) or embedded.get("kind") != "nfa":
            report.error(
                "InvalidDocument", f"{where}: field 'nfa' must be an nfa document"
            )
            continue
        nfa = _parse_automaton(_KINDS["nfa"], embedded, report)
        if key is None or nfa is None:
            continue
        if key in seen:
            report.error("InvalidDocument", f"{where}: duplicate level key {key}")
            continue
        seen.add(key)
        if set(nfa.alphabet) != set(alphabet):
            report.error(
                "AlphabetMismatch",
                f"{where}: level alphabet {sorted(nfa.alphabet)} differs from "
                f"document alphabet {sorted(alphabet)}",
            )
            continue
        levels.append((key, nfa))
    if report.errors:
        return None
    return _build(lambda: LevelDecomposition(alphabet, levels), report)


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
    if kind.weighted:
        state_index = {q: i for i, q in enumerate(x.states)}
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
                ordered = [p for p in x.states if p in targets]
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
