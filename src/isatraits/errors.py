"""Exception types shared across the package.

Every error raised by this package derives from IsaTraitsError so callers
(notably the CLI) can distinguish data/runtime failures from bugs. The
optional ``stage`` attribute identifies which step of the two-stage
prediction pipeline an error came from.
"""


class IsaTraitsError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str, stage: str | None = None):
        super().__init__(message)
        self.stage = stage

    def __str__(self) -> str:
        base = super().__str__()
        if self.stage is not None:
            return f"[stage={self.stage}] {base}"
        return base


# -- corpus ------------------------------------------------------------

class MalformedLabelFile(IsaTraitsError):
    """A label CSV row could not be parsed; carries line number and reason."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DuplicateIsa(IsaTraitsError):
    """The same ISA name appeared twice in a label registry."""

    def __init__(self, name: str):
        super().__init__(f"duplicate ISA name: {name}")
        self.name = name


class EmptyCorpus(IsaTraitsError):
    """The corpus root yielded no usable samples."""


class NotRegularFile(IsaTraitsError):
    """An input path names a FIFO, device, directory or socket: refused
    before any read, since a FIFO blocks and a device may never end."""


# -- features ----------------------------------------------------------

class SampleTooShort(IsaTraitsError):
    """Sample has too few bytes for the requested feature, or for its lag."""


# -- classify ----------------------------------------------------------

class DimensionMismatch(IsaTraitsError):
    """Feature vectors disagree in length, name, or count."""


class SingleClassTrainingSet(IsaTraitsError):
    """Training data contains fewer than two distinct labels."""


class CorruptModelFile(IsaTraitsError):
    """Model file failed checksum, structure, or version validation."""


# -- eval --------------------------------------------------------------

class InsufficientGroups(IsaTraitsError):
    """LOGOCV needs at least two eligible ISA groups."""


class EmptyLabelList(IsaTraitsError):
    """Baseline computation received no labels."""
