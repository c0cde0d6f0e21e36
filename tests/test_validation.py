"""Each structural rule is written once: the constructors raise the first
break of a rule and the document parser reports every break, in the same
words.  Errors that bad input causes are HfaErrors, never bare built-ins."""

import ast
import builtins
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hfa import Cdthfa, Cnthfa, Dfa, HfaError, InvalidAutomaton, Nfa, Nthfa, validate_text

KINDS = {"dfa": Dfa, "nfa": Nfa, "nthfa": Nthfa, "cnthfa": Cnthfa, "cdthfa": Cdthfa}

# Names from characters the rules care about: whitespace, the word separator,
# the escapes of constructed names, non-ASCII and a lone surrogate; the empty
# name included.
names = st.text(st.sampled_from(["a", "b", " ", "\t", ".", "\\", ",", "é", "λ", "\udc80"]),
                max_size=2)


@st.composite
def headers(draw):
    alphabet = draw(st.lists(names, max_size=3))
    states = draw(st.lists(names, max_size=3))
    initial = draw(st.sampled_from(states) if states and draw(st.booleans()) else names)
    return draw(st.sampled_from(sorted(KINDS))), alphabet, states, initial


@settings(max_examples=400, deadline=None)
@given(headers())
def test_constructor_raises_the_first_diagnostic(header):
    """A document reports an error exactly when its constructor raises, and
    the constructor raises the first error the document reports."""
    kind, alphabet, states, initial = header
    hesitant = kind not in ("dfa", "nfa")
    # Empty transition maps, or total ones for the deterministic kinds.
    total = kind in ("dfa", "cdthfa")
    pairs = [(q, a) for q in states for a in alphabet] if total else []
    delta = {pair: states[0] for pair in pairs}
    doc = {
        "kind": kind,
        "alphabet": alphabet,
        "states": states,
        "initial": initial,
        "transitions": [{"from": q, "symbol": a, "to": states[0]} for q, a in pairs],
        "final": {} if hesitant else [],
    }
    errors = [d for d in validate_text(json.dumps(doc)) if d.severity == "error"]
    try:
        KINDS[kind](states, alphabet, delta, initial, {} if hesitant else [])
    except HfaError as exc:
        assert errors, f"{kind} constructor raised {exc!r}, the document is clean"
        code = "InvalidDocument" if isinstance(exc, InvalidAutomaton) else type(exc).__name__
        assert (errors[0].code, errors[0].message) == (code, exc.args[0])
    else:
        assert not errors, f"{kind} constructor accepted what the document rejects: {errors}"


# Built-in exceptions that src/hfa may raise, by file and enclosing function:
# programming errors and the immutability of Thfe, never bad input.
ALLOWED_BUILTIN_RAISES = {
    ("documents.py", "_document_of", "TypeError"),
    ("hfe.py", "Thfe.__setattr__", "AttributeError"),
    ("__main__.py", "", "SystemExit"),
}


def builtin_raises(source: str) -> list[tuple[str, str, int]]:
    """(enclosing function, exception name, line) of each ``raise`` of a
    built-in exception class in ``source``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
                if isinstance(cls, type) and issubclass(cls, BaseException):
                    found.append((scope, exc.id, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_guard_finds_builtin_raises():
    source = "def f(x):\n    if x:\n        raise ValueError(x)\n    raise KeyError\n"
    assert builtin_raises(source) == [("f", "ValueError", 3), ("f", "KeyError", 4)]
    assert builtin_raises("def g(e):\n    raise e\n") == []


def test_library_raises_no_builtin_exceptions():
    src = Path(__file__).parent.parent / "src" / "hfa"
    raised = {
        (path.name, scope, name, line)
        for path in sorted(src.glob("*.py"))
        for scope, name, line in builtin_raises(path.read_text(encoding="utf-8"))
    }
    unexpected = sorted(r for r in raised if r[:3] not in ALLOWED_BUILTIN_RAISES)
    assert not unexpected, "raise an HfaError subclass instead: " + repr(unexpected)
