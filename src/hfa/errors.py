"""Exception hierarchy shared by every module in the package."""


class HfaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDegree(HfaError, ValueError):
    """A membership degree string could not be parsed as an exact rational."""


class DegreeOutOfRange(HfaError, ValueError):
    """A membership degree lies outside the unit interval."""


class InvalidTHFE(HfaError, ValueError):
    """A typical hesitant fuzzy element violates its invariants (e.g. empty)."""


class InvalidAutomaton(HfaError, ValueError):
    """An automaton breaks a structural rule: an empty alphabet or state list,
    an empty or repeated name, a symbol with whitespace or the word
    separator, or a repeated level key."""


class UnknownSymbol(HfaError, KeyError):
    """A word uses a symbol that is not in the automaton's alphabet."""


class UnknownState(HfaError, KeyError):
    """A state name does not belong to the automaton."""


class AlphabetMismatch(HfaError, ValueError):
    """Two automata combined by a binary operation have different alphabets."""


class IncompleteTransition(HfaError, ValueError):
    """A deterministic transition map is missing a (state, symbol) entry."""


class WordTooLong(HfaError, ValueError):
    """A brute-force reference computation was asked to exceed its cost bound."""


class ClosureBudgetExceeded(HfaError, RuntimeError):
    """An exploration of reachable vectors, subsets or pairs grew past its budget."""
