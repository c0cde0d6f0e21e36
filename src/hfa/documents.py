"""JSON exchange format for automata and level decompositions.

Documents use JSON objects, arrays, and strings only.  Rationals travel as
strings ("1/2", "0.35"), never as native numbers, so degrees survive the
round trip exactly.  Serialization is canonical: fixed key order, transitions
sorted by declaration order of states and symbols, final entries in state
order with {0} entries omitted.  Parsing a canonical document and serializing
the result is byte-identical.

Parsing reports problems as Diagnostic values.  parse_document raises
DocumentError when any error-level diagnostic occurs and otherwise returns
the automaton together with the warnings (non-canonical spellings that were
repaired, ignored fields, sink completion).  validate_text returns all
diagnostics without raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

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
]

KINDS = ("dfa", "nfa", "nthfa", "cnthfa", "cdthfa", "decomposition")

# Reserved for completing partial DFA documents with a dead state.
DFA_SINK_NAME = "__sink"

Automaton = Dfa | Nfa | Nthfa | Cnthfa | Cdthfa | LevelDecomposition


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
    automaton = _PARSERS[kind](raw, report)
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
        except DegreeOutOfRange as exc:
            report.error("DegreeOutOfRange", f"{where}: {exc}")
            ok = False
        except InvalidDegree as exc:
            report.error("InvalidDegree", f"{where}: {exc}")
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


def _check_endpoint(
    row: dict, key: str, states: list[str], where: str, report: _Report
) -> str | None:
    name = row[key]
    if not isinstance(name, str):
        report.error("InvalidDocument", f"{where}: field {key!r} must be a string")
        return None
    if name not in states:
        report.error("UnknownState", f"{where}: state {name!r} is not declared")
        return None
    return name


def _check_symbol(
    row: dict, alphabet: list[str], where: str, report: _Report
) -> str | None:
    symbol = row["symbol"]
    if not isinstance(symbol, str):
        report.error("InvalidDocument", f"{where}: field 'symbol' must be a string")
        return None
    if symbol not in alphabet:
        report.error("UnknownSymbol", f"{where}: symbol {symbol!r} is not declared")
        return None
    return symbol


def _parse_final_list(
    raw: dict, states: list[str], report: _Report
) -> list[str] | None:
    finals = _string_list(raw, "final", report)
    if finals is None:
        return None
    seen: set[str] = set()
    result = []
    for name in finals:
        if name not in states:
            report.error("UnknownState", f"final state {name!r} is not declared")
        elif name in seen:
            report.warn("CanonicalizedValue", f"duplicate final state {name!r} merged")
        else:
            seen.add(name)
            result.append(name)
    return None if report.errors else result


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
    return None if report.errors else result


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


def _parse_single_target_delta(
    raw: dict, alphabet: list[str], states: list[str], report: _Report
) -> dict[tuple[str, str], str] | None:
    rows = _transition_rows(raw, ("from", "symbol", "to"), report)
    if rows is None:
        return None
    delta: dict[tuple[str, str], str] = {}
    for i, row in enumerate(rows):
        where = f"transition {i}"
        source = _check_endpoint(row, "from", states, where, report)
        symbol = _check_symbol(row, alphabet, where, report)
        target = _check_endpoint(row, "to", states, where, report)
        if source is None or symbol is None or target is None:
            continue
        if (source, symbol) in delta:
            report.error(
                "DuplicateTransition",
                f"{where}: second transition for ({source!r}, {symbol!r})",
            )
            continue
        delta[(source, symbol)] = target
    return None if report.errors else delta


def _parse_multi_target_delta(
    raw: dict, alphabet: list[str], states: list[str], report: _Report
) -> dict[tuple[str, str], list[str]] | None:
    rows = _transition_rows(raw, ("from", "symbol", "to"), report)
    if rows is None:
        return None
    delta: dict[tuple[str, str], list[str]] = {}
    for i, row in enumerate(rows):
        where = f"transition {i}"
        source = _check_endpoint(row, "from", states, where, report)
        symbol = _check_symbol(row, alphabet, where, report)
        targets = row["to"]
        if not isinstance(targets, list) or not all(
            isinstance(t, str) for t in targets
        ):
            report.error(
                "InvalidDocument", f"{where}: field 'to' must be an array of states"
            )
            continue
        if source is None or symbol is None:
            continue
        bad = False
        for t in targets:
            if t not in states:
                report.error("UnknownState", f"{where}: state {t!r} is not declared")
                bad = True
        if bad:
            continue
        if (source, symbol) in delta:
            report.error(
                "DuplicateTransition",
                f"{where}: second transition for ({source!r}, {symbol!r})",
            )
            continue
        if not targets:
            report.warn(
                "CanonicalizedValue",
                f"{where}: empty target list is omitted when serializing",
            )
        ordered = [q for q in states if q in set(targets)]
        if ordered != targets:
            report.warn(
                "CanonicalizedValue",
                f"{where}: target list reordered to state order",
            )
        delta[(source, symbol)] = ordered
    return None if report.errors else delta


def _complete_dfa_delta(
    delta: dict[tuple[str, str], str],
    alphabet: list[str],
    states: list[str],
    report: _Report,
) -> list[str]:
    """Total-ize a partial DFA transition map with the reserved dead state."""
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
    return states + [DFA_SINK_NAME]


def _parse_dfa(raw: dict, report: _Report) -> Dfa | None:
    _warn_unknown_fields(raw, _HEADER_FIELDS, report)
    header = _check_header(raw, report)
    if header is None:
        return None
    alphabet, states, initial = header
    delta = _parse_single_target_delta(raw, alphabet, states, report)
    finals = _parse_final_list(raw, states, report)
    if delta is None or finals is None:
        return None
    states = _complete_dfa_delta(delta, alphabet, states, report)
    if report.errors:
        return None
    return _build(lambda: Dfa(states, alphabet, delta, initial, finals), report)


def _parse_nfa(raw: dict, report: _Report) -> Nfa | None:
    _warn_unknown_fields(raw, _HEADER_FIELDS, report)
    header = _check_header(raw, report)
    if header is None:
        return None
    alphabet, states, initial = header
    delta = _parse_multi_target_delta(raw, alphabet, states, report)
    finals = _parse_final_list(raw, states, report)
    if delta is None or finals is None:
        return None
    return _build(lambda: Nfa(states, alphabet, delta, initial, finals), report)


def _parse_metadata(raw: dict, report: _Report) -> dict | None:
    metadata = raw.get("metadata")
    if metadata is None:
        return {}
    if not isinstance(metadata, dict):
        report.error("InvalidDocument", "field 'metadata' must be an object")
        return None
    return metadata


_HESITANT_FIELDS = _HEADER_FIELDS + ("metadata",)


def _parse_nthfa(raw: dict, report: _Report) -> Nthfa | None:
    _warn_unknown_fields(raw, _HESITANT_FIELDS, report)
    header = _check_header(raw, report)
    if header is None:
        return None
    alphabet, states, initial = header
    rows = _transition_rows(raw, ("from", "symbol", "to", "value"), report)
    metadata = _parse_metadata(raw, report)
    if rows is None or metadata is None:
        return None
    psi: dict[tuple[str, str, str], Thfe] = {}
    for i, row in enumerate(rows):
        where = f"transition {i}"
        source = _check_endpoint(row, "from", states, where, report)
        symbol = _check_symbol(row, alphabet, where, report)
        target = _check_endpoint(row, "to", states, where, report)
        value = _parse_thfe(row["value"], where, report)
        if source is None or symbol is None or target is None or value is None:
            continue
        if (source, symbol, target) in psi:
            report.error(
                "DuplicateTransition",
                f"{where}: second value for ({source!r}, {symbol!r}, {target!r})",
            )
            continue
        if value == ZERO:
            report.warn(
                "CanonicalizedValue",
                f"{where}: value {{0}} is the default and is omitted when serializing",
            )
        psi[(source, symbol, target)] = value
    finals = _parse_final_map(raw, states, report)
    if report.errors or finals is None:
        return None
    return _build(
        lambda: Nthfa(states, alphabet, psi, initial, finals, metadata), report
    )


def _parse_cnthfa(raw: dict, report: _Report) -> Cnthfa | None:
    _warn_unknown_fields(raw, _HESITANT_FIELDS, report)
    header = _check_header(raw, report)
    if header is None:
        return None
    alphabet, states, initial = header
    delta = _parse_multi_target_delta(raw, alphabet, states, report)
    finals = _parse_final_map(raw, states, report)
    metadata = _parse_metadata(raw, report)
    if delta is None or finals is None or metadata is None:
        return None
    return _build(
        lambda: Cnthfa(states, alphabet, delta, initial, finals, metadata), report
    )


def _parse_cdthfa(raw: dict, report: _Report) -> Cdthfa | None:
    _warn_unknown_fields(raw, _HESITANT_FIELDS, report)
    header = _check_header(raw, report)
    if header is None:
        return None
    alphabet, states, initial = header
    delta = _parse_single_target_delta(raw, alphabet, states, report)
    finals = _parse_final_map(raw, states, report)
    metadata = _parse_metadata(raw, report)
    if delta is None or finals is None or metadata is None:
        return None
    for q in states:
        for a in alphabet:
            if (q, a) not in delta:
                report.error(
                    "IncompleteTransition",
                    f"no transition for ({q!r}, {a!r}); cdthfa documents must be total",
                )
    if report.errors:
        return None
    return _build(
        lambda: Cdthfa(states, alphabet, delta, initial, finals, metadata), report
    )


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
        nfa = _parse_nfa(embedded, report)
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


_PARSERS: dict[str, Callable[[dict, _Report], Automaton | None]] = {
    "dfa": _parse_dfa,
    "nfa": _parse_nfa,
    "nthfa": _parse_nthfa,
    "cnthfa": _parse_cnthfa,
    "cdthfa": _parse_cdthfa,
    "decomposition": _parse_decomposition,
}


def _thfe_json(value: Thfe) -> list[str]:
    return [format_degree(d) for d in value]


def _sorted_tree(value):
    """Metadata is free-form; sort its object keys so output is canonical."""
    if isinstance(value, dict):
        return {k: _sorted_tree(value[k]) for k in sorted(value)}
    if isinstance(value, list):
        return [_sorted_tree(v) for v in value]
    return value


def _single_target_rows(automaton: Dfa | Cdthfa) -> list[dict]:
    return [
        {"from": q, "symbol": a, "to": automaton.delta[(q, a)]}
        for q in automaton.states
        for a in automaton.alphabet
    ]


def _multi_target_rows(automaton: Nfa | Cnthfa) -> list[dict]:
    rows = []
    for q in automaton.states:
        for a in automaton.alphabet:
            targets = automaton.delta.get((q, a))
            if targets:
                ordered = [p for p in automaton.states if p in targets]
                rows.append({"from": q, "symbol": a, "to": ordered})
    return rows


def _final_map_json(automaton: Nthfa | Cnthfa | Cdthfa) -> dict[str, list[str]]:
    return {
        q: _thfe_json(automaton.final_map[q])
        for q in automaton.states
        if automaton.final_map[q] != ZERO
    }


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
    doc: dict = {"kind": None, "alphabet": list(x.alphabet), "states": list(x.states)}
    doc["initial"] = x.initial
    if isinstance(x, Dfa):
        doc["kind"] = "dfa"
        doc["transitions"] = _single_target_rows(x)
        doc["final"] = [q for q in x.states if q in x.finals]
    elif isinstance(x, Nfa):
        doc["kind"] = "nfa"
        doc["transitions"] = _multi_target_rows(x)
        doc["final"] = [q for q in x.states if q in x.finals]
    elif isinstance(x, Nthfa):
        doc["kind"] = "nthfa"
        state_index = {q: i for i, q in enumerate(x.states)}
        symbol_index = {a: i for i, a in enumerate(x.alphabet)}
        doc["transitions"] = [
            {"from": q, "symbol": a, "to": p, "value": _thfe_json(x.psi[(q, a, p)])}
            for q, a, p in sorted(
                x.psi, key=lambda t: (state_index[t[0]], symbol_index[t[1]], state_index[t[2]])
            )
        ]
        doc["final"] = _final_map_json(x)
    elif isinstance(x, Cnthfa):
        doc["kind"] = "cnthfa"
        doc["transitions"] = _multi_target_rows(x)
        doc["final"] = _final_map_json(x)
    elif isinstance(x, Cdthfa):
        doc["kind"] = "cdthfa"
        doc["transitions"] = _single_target_rows(x)
        doc["final"] = _final_map_json(x)
    else:
        raise TypeError(f"cannot serialize {type(x).__name__}")
    metadata = getattr(x, "metadata", None)
    if metadata:
        doc["metadata"] = _sorted_tree(metadata)
    return doc


def serialize_automaton(x: Automaton) -> str:
    """Canonical JSON text of an automaton or decomposition, newline-terminated."""
    return json.dumps(_document_of(x), indent=2, ensure_ascii=False) + "\n"
