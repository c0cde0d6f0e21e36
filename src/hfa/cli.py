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
import os
import sys
from pathlib import Path
from typing import Sequence

from .classic import WORD_SEPARATOR, Dfa, Nfa
from .constructions import (
    crispify_nthfa,
    decompose,
    determinize_cnthfa,
    embed_cnthfa,
    equivalent,
    intersect_cdthfa,
    recompose,
    union_nthfa,
    compute_range,
)
from .errors import ClosureBudgetExceeded, HfaError, UnknownSymbol
from .documents import (
    Diagnostic,
    DocumentError,
    KINDS,
    kind_name,
    parse_document,
    serialize_automaton,
    validate_text,
)

__all__ = ["main", "build_parser"]


def _shown(path: str | Path) -> str:
    """``path`` as the command prints it.  A name the file system gave in
    bytes that are not UTF-8 reaches Python with lone surrogates, which no
    strict UTF-8 stream writes; those bytes are printed as \\xNN escapes."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise DocumentError(
            [Diagnostic("SyntaxError", f"not valid UTF-8 ({exc.reason})", line)]
        ) from None


# The document kinds a command takes, and how its error names them.
ANY = KINDS, "a document"
HESITANT = ("nthfa", "cnthfa", "cdthfa"), "a hesitant automaton (nthfa, cnthfa, or cdthfa)"
SUBSETS = ("nfa", "cnthfa", "cdthfa"), "an nfa, cnthfa, or cdthfa"
WEIGHTED = ("nthfa",), "an nthfa"
CRISP = ("cnthfa", "cdthfa"), "a cnthfa or cdthfa"
LEVELS = ("decomposition",), "a decomposition"


def _load(path: str, accepted: tuple[tuple[str, ...], str]):
    """The document at ``path``, once its kind is one of ``accepted``; each
    diagnostic of a DocumentError on the way starts with the path."""
    kinds, expected = accepted
    try:
        result = parse_document(_read(path))
        for warning in result.warnings:
            print(f"{_shown(path)}: warning: {warning}", file=sys.stderr)
        kind = kind_name(result.automaton)
        if kind not in kinds:
            message = f"expected {expected}, got kind {kind!r}"
            raise DocumentError([Diagnostic("InvalidDocument", message)])
    except DocumentError as exc:
        raise DocumentError([d._replace(message=f"{_shown(path)}: {d.message}")
                             for d in exc.diagnostics]) from None
    return result.automaton


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
    x = _load(args.file, ANY)
    word = parse_word(args.word, args.lambda_, x.alphabet)
    if isinstance(x, (Dfa, Nfa)):
        print("accept" if x.accepts(word) else "reject")
    else:
        print(x.eval(word))
    return 0


def _cmd_union(args) -> int:
    _emit(union_nthfa(_load(args.left, HESITANT), _load(args.right, HESITANT)))
    return 0


def _cmd_intersect(args) -> int:
    left = _load(args.left, HESITANT)
    right = _load(args.right, HESITANT)
    _emit(intersect_cdthfa(left, right))
    return 0


def _cmd_determinize(args) -> int:
    x = _load(args.file, SUBSETS)
    _emit(x.to_dfa() if isinstance(x, Nfa) else determinize_cnthfa(x))
    return 0


def _cmd_crispify(args) -> int:
    _emit(crispify_nthfa(_load(args.file, WEIGHTED)))
    return 0


def _cmd_embed(args) -> int:
    _emit(embed_cnthfa(_load(args.file, CRISP)))
    return 0


def _cmd_decompose(args) -> int:
    decomposition = decompose(_load(args.file, HESITANT))
    if args.output_dir is None:
        _emit(decomposition)
        return 0
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "decomposition.json"
    manifest.write_text(serialize_automaton(decomposition), encoding="utf-8")
    print(f"wrote {_shown(manifest)}")
    for i, (key, nfa) in enumerate(decomposition.levels):
        path = out / f"level_{i:03d}.json"
        path.write_text(serialize_automaton(nfa), encoding="utf-8")
        print(f"wrote {_shown(path)} (k = {key})")
    return 0


def _cmd_recompose(args) -> int:
    _emit(recompose(_load(args.file, LEVELS)))
    return 0


def _cmd_range(args) -> int:
    for value in sorted(compute_range(_load(args.file, HESITANT)), key=lambda t: t.degrees):
        print(value)
    return 0


def _cmd_equiv(args) -> int:
    left = _load(args.left, HESITANT)
    right = _load(args.right, HESITANT)
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
        shown = _shown(path)
        try:
            diagnostics = validate_text(_read(path))
        except DocumentError as exc:
            diagnostics = exc.diagnostics
        except OSError as exc:
            print(f"{shown}: error: {exc}", file=sys.stderr)
            failed = True
            continue
        for d in diagnostics:
            print(f"{shown}: {d.severity}: {d}", file=sys.stderr)
        if any(d.severity == "error" for d in diagnostics):
            failed = True
        else:
            print(f"{shown}: ok")
    return 2 if failed else 0


def _cmd_oracle_check(args) -> int:
    # Imported here so that no other command pays for loading the oracle.
    from .oracle import DEFAULT_RECURSION_BOUND, iter_words, languages_agree_up_to, reference_eval

    left = _load(args.left, HESITANT)
    if args.right is None:
        # The literal reference recursion is exponential in word length, so
        # the single-machine mode defaults to a shorter bound than pair mode.
        # The document's own eval is checked against the reference
        # recursion on its embedding.
        bound = 4 if args.length is None else args.length
        m = embed_cnthfa(left)
        count = 0
        for w in iter_words(left.alphabet, bound):
            count += 1
            got = left.eval(w)
            expected = reference_eval(m, w, max_length=bound)
            if got != expected:
                print("mismatch")
                print(f'word: "{format_word(w, left.alphabet)}"')
                print(f"eval: {got}")
                print(f"reference: {expected}")
                return 1
        print(f"checked {count} words up to length {bound}: all values match the reference")
        return 0
    right = _load(args.right, HESITANT)
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

    def add(name: str, func, help_text: str, *positionals: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        for positional in positionals:
            p.add_argument(positional)
        return p

    p = add("eval", _cmd_eval, "evaluate a word; prints a THFE or accept/reject", "file")
    p.add_argument("word", nargs="?", default=None)
    p.add_argument("--lambda", dest="lambda_", action="store_true", help="evaluate the empty word")

    add("union", _cmd_union, "pointwise join of two hesitant automata", "left", "right")
    add("intersect", _cmd_intersect, "pointwise inf-combination of two hesitant automata",
        "left", "right")
    add("determinize", _cmd_determinize, "subset construction (nfa, cnthfa, or cdthfa input)",
        "file")
    add("crispify", _cmd_crispify, "convert an nthfa to crisp transitions", "file")
    add("embed", _cmd_embed, "view a crisp automaton as an nthfa with {0}/{1} weights", "file")

    p = add("decompose", _cmd_decompose, "level-cut decomposition of a hesitant automaton", "file")
    p.add_argument("-o", "--output-dir", default=None, help="write manifest and per-level files here")

    add("recompose", _cmd_recompose, "rebuild an nthfa from a decomposition document", "file")
    add("range", _cmd_range, "all values the language attains, one per line, ascending", "file")
    add("equiv", _cmd_equiv, "decide language equality of two hesitant automata", "left", "right")

    p = add("validate", _cmd_validate, "check documents; prints diagnostics")
    p.add_argument("files", nargs="+")

    p = add("oracle-check", _cmd_oracle_check,
            "compare against the brute-force reference (one file) or compare two machines word by word",
            "left")
    p.add_argument("right", nargs="?", default=None)
    p.add_argument("-l", "--length", type=_length, default=None, help="maximum word length")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # In "eval FILE --lambda WORD" the word is left over; parse_word reports it.
    if args.command == "eval" and args.word is None and len(extra) == 1 and extra[0][:1] != "-":
        (args.word,) = extra
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
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
