"""Exception types shared across the toolkit.

Two bases matter for the CLI exit-code contract: DataError (bad files,
bad shapes, bad records -> exit 3) and NumericError (degenerate or
non-finite numerics -> exit 4). Everything else is a usage bug and
surfaces as a plain ValueError/TypeError.
"""


class BearingRulError(Exception):
    """Base class for all toolkit errors."""


class DataError(BearingRulError):
    """Input data does not satisfy a structural contract."""


class NumericError(BearingRulError):
    """A computation hit a degenerate or non-finite condition."""


# --- signal processing ---

class EmptyInput(DataError):
    pass


class TooShort(DataError):
    pass


class SignalTooShort(DataError):
    pass


class LengthMismatch(DataError):
    pass


class ZeroVariance(NumericError):
    pass


class NegativeThreshold(ValueError, BearingRulError):
    pass


# --- featurization ---

class InvalidRecord(ValueError, DataError):
    """A BearingRecord with bad shapes or non-finite samples."""


class InvalidSample(ValueError, DataError):
    """A WPD image or labeled sample with bad shape, pixels or label."""


class RecordTooShort(DataError):
    pass


class BaselineTooShort(DataError):
    pass


class FptOutOfRange(DataError):
    pass


class NoPostFptWindows(DataError):
    pass


# --- tensor engine ---

class ShapeMismatch(ValueError, BearingRulError):
    pass


class IndivisibleShape(ValueError, BearingRulError):
    pass


class InvalidProbability(ValueError, BearingRulError):
    pass


class NonScalarLoss(ValueError, BearingRulError):
    pass


class GraphReleased(ValueError, BearingRulError):
    """backward() reached a node of a graph it already walked and released."""


# --- model ---

class IndivisibleGrid(ValueError, BearingRulError):
    pass


class OddGrid(ValueError, BearingRulError):
    pass


class ConfigMismatch(ValueError, BearingRulError):
    pass


# --- training ---

class EmptyBatch(DataError):
    pass


class EmptyDataset(DataError):
    pass


class DivergedLoss(NumericError):
    pass


# --- data I/O ---

class MissingDirectory(DataError):
    pass


class MalformedRow(DataError):
    def __init__(self, message, path=None, line=None):
        super().__init__(message)
        self.path = path
        self.line = line


class InconsistentSnapshotLength(DataError):
    pass


class InvalidConfig(ValueError, BearingRulError):
    pass


class VersionMismatch(DataError):
    pass


class CorruptContainer(DataError):
    pass
