"""Exception types shared across the package.

Domain errors (bad inputs, failed hypotheses, exhausted searches) all derive
from NormforgeError so the CLI can map them to exit code 1.
ConclusionViolation is different: it is a bug sentinel.  It fires when every
hypothesis of a verified statement holds but a conclusion fails, which means
either the implementation or the underlying mathematics is wrong, and it must
never be caught and converted into a report.
"""


class NormforgeError(Exception):
    """Base class for all domain errors."""


class NotSquarefreeAtP(NormforgeError):
    pass


class ZeroResidue(NormforgeError):
    pass


class NonMonogenicAtP(NormforgeError):
    """The Dedekind criterion failed: Z[theta] is not maximal at p."""


class PrecisionExhausted(NormforgeError):
    pass


class NotAUnit(NormforgeError):
    pass


class NoRealConjugates(NormforgeError):
    pass


class SearchExhausted(NormforgeError):
    pass


class MissingTrace(NormforgeError):
    pass


class MissingRootOfUnity(NormforgeError):
    pass


class DegenerateRadicand(NormforgeError):
    pass


class RamifiedCase(NormforgeError):
    pass


class HypothesisFail(NormforgeError):
    """Input does not satisfy a proposition's hypotheses.

    `failed` lists the indices or names of the hypotheses that failed.
    """

    def __init__(self, failed, message=""):
        self.failed = list(failed)
        super().__init__(message or f"hypotheses failed: {self.failed}")


class DegenerateLayer(NormforgeError):
    pass


class IncompleteAssignment(NormforgeError):
    pass


class OutputTooLarge(NormforgeError):
    """A result has an integer too long for CPython to print as a string."""


class NotFound(NormforgeError):
    """Bounded search ended without a witness; carries the search ledger."""

    def __init__(self, message="", ledger=None):
        self.ledger = ledger if ledger is not None else []
        super().__init__(message)


class ConclusionViolation(AssertionError):
    """Bug sentinel: hypotheses verified but a proved conclusion failed."""
