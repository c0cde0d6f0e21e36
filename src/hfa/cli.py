"""Command-line interface.

    hfa eval machine.json abb
    hfa union left.json right.json > union.json
    hfa equiv a.json b.json

Documents go to standard output as canonical JSON; reports and verdicts are
plain lines.  Warnings and errors go to standard error.  Exit codes: 0 for
success (including an "equivalent" verdict), 1 for a "not equivalent" or
mismatch verdict, 2 for invalid input, 3 for an exhausted closure budget.

Words on the command line: when every alphabet symbol is a single character
the word argument is split per character ("abb"); otherwise symbols are
separated by "." ("ab.cd.ab").  The empty word is spelled "" or --lambda.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .classic import WORD_SEPARATOR, Dfa, Nfa
from .constructions import (
    LevelDecomposition,
    crispify_nthfa,
    decompose,
    determinize_cnthfa,
    embed_cnthfa,
    equivalent,
    eval_decomposition,
    intersect_cdthfa,
    recompose,
    union_nthfa,
    compute_range,
)
from .errors import ClosureBudgetExceeded, HfaError, UnknownSymbol
from .documents import (
    Diagnostic,
    DocumentError,
    kind_name,
    parse_document,
    serialize_automaton,
    validate_text,
)
from .hesitant import Cdthfa, Cnthfa, Nthfa

__all__ = ["main", "build_parser"]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise DocumentError(
            [Diagnostic("SyntaxError", f"not valid UTF-8 ({exc.reason})", line)]
        ) from None


def _load(path: str):
    result = parse_document(_read(path))
    for warning in result.warnings:
        print(f"{path}: warning: {warning}", file=sys.stderr)
    return result.automaton


def _reject_kind(path: str, got, expected: str):
    message = f"{path}: expected {expected}, got kind {kind_name(got)!r}"
    raise DocumentError([Diagnostic("InvalidDocument", message)])


def _as_hesitant(path: str, x) -> Nthfa | Cnthfa | Cdthfa:
    if isinstance(x, (Nthfa, Cnthfa, Cdthfa)):
        return x
    _reject_kind(path, x, "a hesitant automaton (nthfa, cnthfa, or cdthfa)")


def _as_nthfa(path: str, x) -> Nthfa:
    x = _as_hesitant(path, x)
    if isinstance(x, Cdthfa):
        x = x.as_cnthfa()
    return embed_cnthfa(x) if isinstance(x, Cnthfa) else x


def parse_word(arg: str | None, lambda_flag: bool, alphabet: Sequence[str]) -> tuple[str, ...]:
    if lambda_flag:
        if arg not in (None, ""):
            raise DocumentError(
                [Diagnostic("InvalidDocument", "--lambda excludes a word argument")]
            )
        return ()
    if arg is None:
        raise DocumentError(
            [Diagnostic("InvalidDocument", 'missing word; use "" or --lambda for the empty word')]
        )
    if arg == "":
        return ()
    if all(len(a) == 1 for a in alphabet):
        symbols = tuple(arg)
    else:
        symbols = tuple(arg.split(WORD_SEPARATOR))
    known = set(alphabet)
    for s in symbols:
        if s not in known:
            raise UnknownSymbol(f"symbol {s!r} is not in the alphabet {sorted(known)}")
    return symbols


def format_word(word: Sequence[str], alphabet: Sequence[str]) -> str:
    if all(len(a) == 1 for a in alphabet):
        return "".join(word)
    return WORD_SEPARATOR.join(word)


def _emit(x) -> None:
    sys.stdout.write(serialize_automaton(x))


def _cmd_eval(args) -> int:
    x = _load(args.file)
    word = parse_word(args.word, args.lambda_, x.alphabet)
    if isinstance(x, (Dfa, Nfa)):
        print("accept" if x.accepts(word) else "reject")
    elif isinstance(x, LevelDecomposition):
        print(eval_decomposition(x, word))
    else:
        print(x.eval(word))
    return 0


def _cmd_union(args) -> int:
    left = _as_nthfa(args.left, _load(args.left))
    right = _as_nthfa(args.right, _load(args.right))
    _emit(union_nthfa(left, right))
    return 0


def _cmd_intersect(args) -> int:
    left = _as_hesitant(args.left, _load(args.left))
    right = _as_hesitant(args.right, _load(args.right))
    _emit(intersect_cdthfa(left, right))
    return 0


def _cmd_determinize(args) -> int:
    x = _load(args.file)
    if isinstance(x, Nfa):
        _emit(x.to_dfa())
    elif isinstance(x, Cdthfa):
        _emit(determinize_cnthfa(x.as_cnthfa()))
    elif isinstance(x, Cnthfa):
        _emit(determinize_cnthfa(x))
    else:
        _reject_kind(args.file, x, "an nfa, cnthfa, or cdthfa")
    return 0


def _cmd_crispify(args) -> int:
    x = _load(args.file)
    if not isinstance(x, Nthfa):
        _reject_kind(args.file, x, "an nthfa")
    _emit(crispify_nthfa(x))
    return 0


def _cmd_embed(args) -> int:
    x = _load(args.file)
    if not isinstance(x, (Cnthfa, Cdthfa)):
        _reject_kind(args.file, x, "a cnthfa or cdthfa")
    _emit(_as_nthfa(args.file, x))
    return 0


def _cmd_decompose(args) -> int:
    m = _as_nthfa(args.file, _load(args.file))
    decomposition = decompose(m)
    if args.output_dir is None:
        _emit(decomposition)
        return 0
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "decomposition.json"
    manifest.write_text(serialize_automaton(decomposition), encoding="utf-8")
    print(f"wrote {manifest}")
    for i, (key, nfa) in enumerate(decomposition.levels):
        path = out / f"level_{i:03d}.json"
        path.write_text(serialize_automaton(nfa), encoding="utf-8")
        print(f"wrote {path} (k = {key})")
    return 0


def _cmd_recompose(args) -> int:
    x = _load(args.file)
    if not isinstance(x, LevelDecomposition):
        _reject_kind(args.file, x, "a decomposition")
    _emit(recompose(x))
    return 0


def _cmd_range(args) -> int:
    m = _as_nthfa(args.file, _load(args.file))
    for value in sorted(compute_range(m), key=lambda t: t.degrees):
        print(value)
    return 0


def _cmd_equiv(args) -> int:
    left = _as_hesitant(args.left, _load(args.left))
    right = _as_hesitant(args.right, _load(args.right))
    verdict = equivalent(left, right)
    if verdict.equivalent:
        print("equivalent")
        return 0
    print("not equivalent")
    print(f'counterexample: "{format_word(verdict.counterexample, left.alphabet)}"')
    return 1


def _cmd_validate(args) -> int:
    failed = False
    for path in args.files:
        try:
            diagnostics = validate_text(_read(path))
        except DocumentError as exc:
            diagnostics = exc.diagnostics
        except OSError as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            failed = True
            continue
        for d in diagnostics:
            print(f"{path}: {d.severity}: {d}", file=sys.stderr)
        if any(d.severity == "error" for d in diagnostics):
            failed = True
        else:
            print(f"{path}: ok")
    return 2 if failed else 0


def _cmd_oracle_check(args) -> int:
    # Imported here so that no other command pays for loading the oracle.
    from .oracle import DEFAULT_RECURSION_BOUND, iter_words, languages_agree_up_to, reference_eval

    left = _as_hesitant(args.left, _load(args.left))
    if args.right is None:
        # The literal reference recursion is exponential in word length, so
        # the single-machine mode defaults to a shorter bound than pair mode.
        bound = 4 if args.length is None else args.length
        m = _as_nthfa(args.left, left)
        count = 0
        for w in iter_words(m.alphabet, bound):
            count += 1
            got = m.eval(w)
            expected = reference_eval(m, w, max_length=bound)
            if got != expected:
                print("mismatch")
                print(f'word: "{format_word(w, m.alphabet)}"')
                print(f"eval: {got}")
                print(f"reference: {expected}")
                return 1
        print(f"checked {count} words up to length {bound}: all values match the reference")
        return 0
    right = _as_hesitant(args.right, _load(args.right))
    bound = DEFAULT_RECURSION_BOUND if args.length is None else args.length
    verdict = languages_agree_up_to(left, right, bound)
    if verdict.equivalent:
        print(f"agree on all words up to length {bound}")
        return 0
    print("disagree")
    print(f'counterexample: "{format_word(verdict.counterexample, left.alphabet)}"')
    return 1


def _length(text: str) -> int:
    """A --length argument: a word length, so a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfa",
        description="Evaluate, combine, decompose, and compare hesitant automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        return p

    p = add("eval", _cmd_eval, "evaluate a word; prints a THFE or accept/reject")
    p.add_argument("file")
    p.add_argument("word", nargs="?", default=None)
    p.add_argument("--lambda", dest="lambda_", action="store_true", help="evaluate the empty word")

    p = add("union", _cmd_union, "pointwise join of two hesitant automata")
    p.add_argument("left")
    p.add_argument("right")

    p = add("intersect", _cmd_intersect, "pointwise inf-combination of two hesitant automata")
    p.add_argument("left")
    p.add_argument("right")

    p = add("determinize", _cmd_determinize, "subset construction (nfa, cnthfa, or cdthfa input)")
    p.add_argument("file")

    p = add("crispify", _cmd_crispify, "convert an nthfa to crisp transitions")
    p.add_argument("file")

    p = add("embed", _cmd_embed, "view a crisp automaton as an nthfa with {0}/{1} weights")
    p.add_argument("file")

    p = add("decompose", _cmd_decompose, "level-cut decomposition of a hesitant automaton")
    p.add_argument("file")
    p.add_argument("-o", "--output-dir", default=None, help="write manifest and per-level files here")

    p = add("recompose", _cmd_recompose, "rebuild an nthfa from a decomposition document")
    p.add_argument("file")

    p = add("range", _cmd_range, "all values the language attains, one per line, ascending")
    p.add_argument("file")

    p = add("equiv", _cmd_equiv, "decide language equality of two hesitant automata")
    p.add_argument("left")
    p.add_argument("right")

    p = add("validate", _cmd_validate, "check documents; prints diagnostics")
    p.add_argument("files", nargs="+")

    p = add("oracle-check", _cmd_oracle_check,
            "compare against the brute-force reference (one file) or compare two machines word by word")
    p.add_argument("left")
    p.add_argument("right", nargs="?", default=None)
    p.add_argument("-l", "--length", type=_length, default=None, help="maximum word length")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ClosureBudgetExceeded as exc:
        print(f"closure-budget-exceeded: {exc}", file=sys.stderr)
        return 3
    except DocumentError as exc:
        for diagnostic in exc.diagnostics:
            print(f"error: {diagnostic}", file=sys.stderr)
        return 2
    except HfaError as exc:
        # KeyError-backed errors repr their message; unwrap for clean output.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
