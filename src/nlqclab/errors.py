"""Exception types shared across the package."""


class NlqcError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(NlqcError):
    pass


class IndexOutOfRange(NlqcError):
    pass


class CapExceeded(NlqcError):
    """A requested dense object would exceed the configured size cap."""


class NotClifford(NlqcError):
    pass


class NotOneSided(NlqcError):
    pass


class MalformedMatching(NlqcError):
    pass


class MalformedProgram(NlqcError):
    pass


class DimensionTooSmall(NlqcError):
    pass


class InsufficientShares(NlqcError):
    pass


class AmbiguousSide(NlqcError):
    pass


class EmptyRegion(NlqcError):
    pass


class EmptyDiamond(NlqcError):
    pass


class EmptyDecisionRegion(EmptyDiamond):
    """No causal diamond lies above an input: its decision region is empty."""


class UsageError(NlqcError):
    pass


class IOFailure(NlqcError):
    pass


class CheckFailed(NlqcError):
    """A self-check (``nlqc suite``) found a wrong result."""
